package middleware

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"

	"gridsched/internal/metrics"

	"gridsched/internal/service/api"
)

// Principal is an authenticated caller: the tenant its bearer token maps
// to, and whether the token carries admin privileges (required for admin
// endpoints, and for submitting jobs on behalf of other tenants).
type Principal struct {
	Tenant string
	Admin  bool
}

// TokenStore maps bearer tokens to principals, loaded from a token file
// and hot-reloadable (gridschedd reloads on SIGHUP). The file is
// journal-free operator state: lines of
//
//	<token> <tenant> [admin]
//
// with '#' comments and blank lines ignored. <tenant> is the tenant the
// token authenticates as; "-" names the default (anonymous) tenant. A
// trailing "admin" grants admin privileges.
type TokenStore struct {
	path string

	mu     sync.RWMutex
	tokens map[string]Principal
}

// LoadTokenFile reads path and returns a store that Reload() re-reads
// from the same path.
func LoadTokenFile(path string) (*TokenStore, error) {
	s := &TokenStore{path: path}
	if err := s.Reload(); err != nil {
		return nil, err
	}
	return s, nil
}

// NewTokenStore wraps an in-memory token table (tests, embedders).
// Reload is a no-op for such a store.
func NewTokenStore(tokens map[string]Principal) *TokenStore {
	cp := make(map[string]Principal, len(tokens))
	for k, v := range tokens {
		cp[k] = v
	}
	return &TokenStore{tokens: cp}
}

// Reload re-reads the token file. On any error — unreadable file, parse
// failure — the previously loaded table stays in effect, so a botched
// edit plus SIGHUP cannot lock every client out.
func (s *TokenStore) Reload() error {
	if s.path == "" {
		return nil
	}
	data, err := os.ReadFile(s.path)
	if err != nil {
		return fmt.Errorf("middleware: token file: %w", err)
	}
	tokens, err := parseTokens(data)
	if err != nil {
		return fmt.Errorf("middleware: token file %s: %w", s.path, err)
	}
	s.mu.Lock()
	s.tokens = tokens
	s.mu.Unlock()
	return nil
}

// Len reports the number of loaded tokens.
func (s *TokenStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tokens)
}

func (s *TokenStore) lookup(token string) (Principal, bool) {
	s.mu.RLock()
	p, ok := s.tokens[token]
	s.mu.RUnlock()
	return p, ok
}

func parseTokens(data []byte) (map[string]Principal, error) {
	tokens := make(map[string]Principal)
	sc := bufio.NewScanner(bytes.NewReader(data))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("line %d: want \"<token> <tenant> [admin]\", got %d fields", n, len(fields))
		}
		p := Principal{Tenant: fields[1]}
		if p.Tenant == "-" {
			p.Tenant = ""
		}
		if len(fields) == 3 {
			if fields[2] != "admin" {
				return nil, fmt.Errorf("line %d: unknown flag %q (only \"admin\")", n, fields[2])
			}
			p.Admin = true
		}
		if _, dup := tokens[fields[0]]; dup {
			return nil, fmt.Errorf("line %d: duplicate token", n)
		}
		tokens[fields[0]] = p
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return tokens, nil
}

// adminEndpoint reports whether the request mutates cross-tenant state
// and therefore requires an admin token: quota overrides (PUT
// /v1/tenants/{tenant}) and the whole replication surface (streaming the
// journal exposes every tenant's records; promotion changes who leads).
func adminEndpoint(r *http.Request) bool {
	if strings.HasPrefix(r.URL.Path, "/v1/replication/") {
		return true
	}
	return r.Method == http.MethodPut && strings.HasPrefix(r.URL.Path, "/v1/tenants/")
}

// auth enforces per-tenant bearer-token authentication on every
// non-exempt endpoint: no or unknown token is a 401, a valid token
// without admin privileges hitting an admin endpoint is a 403. The
// authenticated principal rides the request state (PrincipalFrom);
// internal/service uses it to bind submissions to the token's tenant.
func auth(store *TokenStore, c *metrics.IngressCounters) layer {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if Exempt(r.URL.Path) {
				next.ServeHTTP(w, r)
				return
			}
			token, ok := bearerToken(r)
			var p Principal
			if ok {
				p, ok = store.lookup(token)
			}
			if !ok {
				c.AuthFailures.Add(1)
				Logf(r.Context(), "auth=rejected reason=\"missing or unknown bearer token\"")
				w.Header().Set("WWW-Authenticate", `Bearer realm="gridsched"`)
				api.WriteJSON(w, http.StatusUnauthorized, api.ErrorResponse{Error: "missing or invalid bearer token"})
				return
			}
			if adminEndpoint(r) && !p.Admin {
				c.AuthDenied.Add(1)
				Logf(r.Context(), "auth=denied tenant=%q reason=\"admin endpoint\"", p.Tenant)
				api.WriteJSON(w, http.StatusForbidden, api.ErrorResponse{Error: "admin token required"})
				return
			}
			st := state(r)
			st.principal, st.hasPrincipal = p, true
			next.ServeHTTP(w, r)
		})
	}
}

func bearerToken(r *http.Request) (string, bool) {
	// "Authorization" is canonical; direct indexing skips Get's
	// canonicalization scan on every authenticated request.
	var h string
	if vv := r.Header["Authorization"]; len(vv) > 0 {
		h = vv[0]
	}
	const prefix = "Bearer "
	if len(h) <= len(prefix) || !strings.EqualFold(h[:len(prefix)], prefix) {
		return "", false
	}
	return h[len(prefix):], true
}

// PrincipalFrom returns the request's authenticated principal, if any.
func PrincipalFrom(ctx context.Context) (Principal, bool) {
	if st, _ := ctx.Value(reqStateKey).(*reqState); st != nil && st.hasPrincipal {
		return st.principal, true
	}
	return Principal{}, false
}

// resolveWeight resolves the authenticated tenant's fair-share weight at
// most once per request: the first caller in the chain (rate limiter or
// shedder) pays the resolver's cost — typically a scheduler lock — and the
// raw result is cached in the request state for the rest of the chain.
// Callers apply their own clamping. A nil resolver is weight 1.
func (st *reqState) resolveWeight(resolve func(string) int64) int64 {
	if resolve == nil {
		return 1
	}
	if !st.hasWeight {
		st.weight, st.hasWeight = resolve(st.principal.Tenant), true
	}
	return st.weight
}
