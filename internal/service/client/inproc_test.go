package client_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"gridsched/internal/middleware"
	"gridsched/internal/service/api"
	"gridsched/internal/service/client"
)

// TestInProcessHasOnePath: every handler, on any route, is served the way
// net/http serves it — the response arrives once the handler flushes or
// returns, a flushed stream delivers its frames while the handler still
// runs, and a panic ends the exchange instead of the caller.
func TestInProcessHasOnePath(t *testing.T) {
	const wait = 10 * time.Second
	for _, tc := range []struct {
		name  string
		serve func(release <-chan struct{}, exited chan<- struct{}) http.Handler
		check func(t *testing.T, do func(context.Context) (*http.Response, error), release chan<- struct{}, exited <-chan struct{})
	}{
		{
			name: "frames flushed on a route without /stream",
			serve: func(release <-chan struct{}, exited chan<- struct{}) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					defer close(exited)
					f, ok := w.(http.Flusher)
					if !ok {
						http.Error(w, "the writer cannot flush", http.StatusInternalServerError)
						return
					}
					_, _ = io.WriteString(w, "a\n")
					f.Flush()
					select {
					case <-release:
					case <-r.Context().Done():
						return
					}
					_, _ = io.WriteString(w, "b\n")
					f.Flush()
				})
			},
			check: func(t *testing.T, do func(context.Context) (*http.Response, error), release chan<- struct{}, exited <-chan struct{}) {
				resp, err := do(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					body, _ := io.ReadAll(resp.Body)
					t.Fatalf("status %d: %s", resp.StatusCode, body)
				}
				rd := bufio.NewReader(resp.Body)
				if line, err := rd.ReadString('\n'); line != "a\n" {
					t.Fatalf("first frame %q, %v", line, err)
				}
				close(release) // the second frame is written only now
				if line, err := rd.ReadString('\n'); line != "b\n" {
					t.Fatalf("second frame %q, %v", line, err)
				}
				if rest, err := io.ReadAll(rd); err != nil || len(rest) != 0 {
					t.Fatalf("after the last frame: %q, %v", rest, err)
				}
			},
		},
		{
			name: "header flushed, then a long park",
			serve: func(release <-chan struct{}, exited chan<- struct{}) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					defer close(exited)
					w.Header().Set("X-Parked", "yes")
					w.WriteHeader(http.StatusAccepted)
					if f, ok := w.(http.Flusher); ok {
						f.Flush()
					}
					<-r.Context().Done()
				})
			},
			check: func(t *testing.T, do func(context.Context) (*http.Response, error), release chan<- struct{}, exited <-chan struct{}) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				type result struct {
					resp *http.Response
					err  error
				}
				done := make(chan result, 1)
				go func() {
					resp, err := do(ctx)
					done <- result{resp, err}
				}()
				var res result
				select {
				case res = <-done:
				case <-time.After(wait):
					t.Fatal("the response never arrived while its handler parked")
				}
				if res.err != nil {
					t.Fatal(res.err)
				}
				defer res.resp.Body.Close()
				if res.resp.StatusCode != http.StatusAccepted || res.resp.Header.Get("X-Parked") != "yes" {
					t.Fatalf("status %d, header %v", res.resp.StatusCode, res.resp.Header)
				}
				cancel()
				if _, err := io.ReadAll(res.resp.Body); err != nil {
					t.Fatalf("the body of a parked handler that returned: %v", err)
				}
				select {
				case <-exited:
				case <-time.After(wait):
					t.Fatal("the handler outlived its request's context")
				}
			},
		},
		{
			name: "a long poll the caller gives up on",
			serve: func(release <-chan struct{}, exited chan<- struct{}) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					defer close(exited)
					<-r.Context().Done()
					w.WriteHeader(http.StatusNoContent)
				})
			},
			check: func(t *testing.T, do func(context.Context) (*http.Response, error), release chan<- struct{}, exited <-chan struct{}) {
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				defer cancel()
				if resp, err := do(ctx); !errors.Is(err, context.DeadlineExceeded) {
					if err == nil {
						resp.Body.Close()
					}
					t.Fatalf("gave up on a parked poll: %v, want the deadline", err)
				}
				select {
				case <-exited:
				case <-time.After(wait):
					t.Fatal("the handler outlived its request's context")
				}
			},
		},
		{
			name: "writes nothing and returns",
			serve: func(release <-chan struct{}, exited chan<- struct{}) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					close(exited)
					w.Header().Set("X-Empty", "yes")
				})
			},
			check: func(t *testing.T, do func(context.Context) (*http.Response, error), release chan<- struct{}, exited <-chan struct{}) {
				resp, err := do(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Empty") != "yes" || len(body) != 0 || err != nil {
					t.Fatalf("status %d, header %v, body %q, %v", resp.StatusCode, resp.Header, body, err)
				}
			},
		},
		{
			name: "a panic behind the ingress chain",
			serve: func(release <-chan struct{}, exited chan<- struct{}) http.Handler {
				return middleware.Ingress(middleware.Config{Log: io.Discard}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					close(exited)
					panic("boom")
				}))
			},
			check: func(t *testing.T, do func(context.Context) (*http.Response, error), release chan<- struct{}, exited <-chan struct{}) {
				resp, err := do(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var e api.ErrorResponse
				if err := json.NewDecoder(resp.Body).Decode(&e); resp.StatusCode != http.StatusInternalServerError || err != nil || e.Error == "" {
					t.Fatalf("status %d, error body %+v, %v", resp.StatusCode, e, err)
				}
			},
		},
		{
			name: "a panic with nothing to recover it",
			serve: func(release <-chan struct{}, exited chan<- struct{}) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					close(exited)
					panic("boom")
				})
			},
			check: func(t *testing.T, do func(context.Context) (*http.Response, error), release chan<- struct{}, exited <-chan struct{}) {
				resp, err := do(context.Background())
				if err == nil {
					resp.Body.Close()
					t.Fatalf("status %d from a handler that panicked", resp.StatusCode)
				}
				if !strings.Contains(err.Error(), "panicked: boom") {
					t.Fatalf("error %v does not name the panic", err)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			release, exited := make(chan struct{}), make(chan struct{})
			hc := &http.Client{Transport: client.InProcessTransport(tc.serve(release, exited))}
			do := func(ctx context.Context) (*http.Response, error) {
				req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://gridschedd.inproc/v1/anything", nil)
				if err != nil {
					return nil, err
				}
				return hc.Do(req)
			}
			tc.check(t, do, release, exited)
		})
	}
}
