package service_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gridsched/internal/metrics"
	"gridsched/internal/middleware"
	"gridsched/internal/service"
	"gridsched/internal/service/api"
	"gridsched/internal/service/client"
	"gridsched/internal/testkit"
)

// TestIngressAuthEndToEnd drives the real service through the full ingress
// chain over HTTP and pins the auth contract: mutating endpoints reject
// tokenless callers 401, probes and metrics stay open, admin endpoints
// need an admin token, and submissions are bound to the token's tenant.
func TestIngressAuthEndToEnd(t *testing.T) {
	svc := newService(t, service.Config{})
	c := metrics.NewIngressCounters()
	store := middleware.NewTokenStore(map[string]middleware.Principal{
		"gold-token":   {Tenant: "gold"},
		"bronze-token": {Tenant: "bronze"},
		"admin-token":  {Tenant: "ops", Admin: true},
	})
	ts := httptest.NewServer(middleware.Ingress(middleware.Config{
		Counters: c, Log: io.Discard, Tokens: store, TenantWeight: svc.TenantWeight,
	}, svc.Handler()))
	defer ts.Close()
	ctx := context.Background()

	// Tokenless mutations are 401; probes and metrics answer anyone.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless submit: %d, want 401", resp.StatusCode)
	}
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s with auth enabled: %d, want 200", path, resp.StatusCode)
		}
		if path == "/metrics" && !strings.Contains(string(body), "gridsched_ingress_requests_total") {
			t.Fatalf("/metrics missing ingress counters:\n%s", body)
		}
	}

	gold := testkit.WireCodec(t, client.New(ts.URL, nil))
	gold.AuthToken = "gold-token"
	// A tenant token cannot submit on another tenant's behalf...
	_, err = gold.SubmitTenantJob(ctx, "bronze", 1, "sneaky", "workqueue", 0, syntheticWorkload(8, 1))
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusForbidden {
		t.Fatalf("cross-tenant submit: %v, want 403", err)
	}
	// ... and a submission without a tenant is bound to the token's.
	id, err := gold.SubmitJob(ctx, "mine", "workqueue", 0, syntheticWorkload(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	st, err := gold.Job(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tenant != "gold" {
		t.Fatalf("submitted job bound to tenant %q, want gold", st.Tenant)
	}

	// Admin endpoint: tenant token 403, admin token 200.
	if _, err := testkit.Call[api.TenantStatus](ctx, gold, http.MethodPut, "/v1/tenants/gold", api.TenantQuotaRequest{MaxInFlight: 4}); err == nil {
		t.Fatal("non-admin quota override accepted")
	} else if !errors.As(err, &ae) || ae.StatusCode != http.StatusForbidden {
		t.Fatalf("non-admin quota override: %v, want 403", err)
	}
	admin := testkit.WireCodec(t, client.New(ts.URL, nil))
	admin.AuthToken = "admin-token"
	if _, err := testkit.Call[api.TenantStatus](ctx, admin, http.MethodPut, "/v1/tenants/gold", api.TenantQuotaRequest{MaxInFlight: 4}); err != nil {
		t.Fatalf("admin quota override: %v", err)
	}

	// Job deletion is tenant-scoped: another tenant's token is refused
	// outright (403, before any state check), while the owner reaches the
	// delete path itself — the job is still running, so the service
	// answers 409, proving the request got past authorization.
	bronze := testkit.WireCodec(t, client.New(ts.URL, nil))
	bronze.AuthToken = "bronze-token"
	if _, err := testkit.Call[any](ctx, bronze, http.MethodDelete, "/v1/jobs/"+id, nil); !errors.As(err, &ae) || ae.StatusCode != http.StatusForbidden {
		t.Fatalf("cross-tenant delete: %v, want 403", err)
	}
	if _, err := testkit.Call[any](ctx, gold, http.MethodDelete, "/v1/jobs/"+id, nil); !errors.As(err, &ae) || ae.StatusCode != http.StatusConflict {
		t.Fatalf("owner delete of running job: %v, want 409", err)
	}
	if _, err := testkit.Call[any](ctx, admin, http.MethodDelete, "/v1/jobs/"+id, nil); !errors.As(err, &ae) || ae.StatusCode != http.StatusConflict {
		t.Fatalf("admin delete of running job: %v, want 409", err)
	}
	if c.AuthFailures.Load() == 0 || c.AuthDenied.Load() == 0 {
		t.Fatalf("counters: failures=%d denied=%d, want both > 0",
			c.AuthFailures.Load(), c.AuthDenied.Load())
	}
}

// TestIngressIdleLongPollsDoNotShed: an idle fleet long-polling an empty
// queue parks server-side for the full poll budget on every pull. Those
// parked waits must not be read as request latency — with a 50ms shed
// bound and ~100ms polls, a shedder that counted them would escalate
// immediately and shed a completely unloaded system.
func TestIngressIdleLongPollsDoNotShed(t *testing.T) {
	svc := newService(t, service.Config{})
	c := metrics.NewIngressCounters()
	ts := httptest.NewServer(middleware.Ingress(middleware.Config{
		Counters:       c,
		Log:            io.Discard,
		ShedP99:        50 * time.Millisecond,
		ShedMinSamples: 4,
		ShedEvalEvery:  10 * time.Millisecond,
		TenantWeight:   svc.TenantWeight,
	}, svc.Handler()))
	defer ts.Close()
	ctx := context.Background()
	cl := testkit.WireCodec(t, client.New(ts.URL, nil))
	reg, err := cl.Register(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		resp, err := cl.Pull(ctx, reg.WorkerID, 100*time.Millisecond)
		if err != nil {
			t.Fatalf("pull %d on an idle cluster: %v", i, err)
		}
		if resp.Status != api.StatusEmpty {
			t.Fatalf("pull %d: status %q, want empty", i, resp.Status)
		}
	}
	if n := c.Sheds.Load(); n != 0 {
		t.Fatalf("idle long-polls drove %d sheds (parked waits sampled as latency)", n)
	}
	if lvl := c.ShedLevel.Load(); lvl != 0 {
		t.Fatalf("shed level = %d on an idle cluster, want 0", lvl)
	}
}

// TestIngressOverloadShedsLightTenantLast is the two-tenant overload e2e:
// a deliberately slow service (every request over the shed bound) with a
// weight-4 and a weight-1 tenant pulling as fast as they can. The shedder
// must throttle both tenants' intake but keep the heavier tenant's
// admitted-pull throughput at least twice the lighter one's — the paying
// tenant sheds last and is readmitted first.
func TestIngressOverloadShedsLightTenantLast(t *testing.T) {
	svc := newService(t, service.Config{})
	c := metrics.NewIngressCounters()
	store := middleware.NewTokenStore(map[string]middleware.Principal{
		"gold-token":   {Tenant: "gold"},
		"bronze-token": {Tenant: "bronze"},
	})
	// The overload: every service request costs ~2ms against a 1ms p99
	// bound, so the breach is sustained for as long as traffic is admitted.
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
		svc.Handler().ServeHTTP(w, r)
	})
	ts := httptest.NewServer(middleware.Ingress(middleware.Config{
		Counters:       c,
		Log:            io.Discard,
		Tokens:         store,
		ShedP99:        time.Millisecond,
		ShedMinSamples: 12,
		ShedEvalEvery:  25 * time.Millisecond,
		TenantWeight:   svc.TenantWeight,
	}, slow))
	defer ts.Close()
	ctx := context.Background()

	// One long-running job per tenant establishes the weights the shedder
	// orders by: gold 4, bronze 1.
	gold := testkit.WireCodec(t, client.New(ts.URL, nil))
	gold.AuthToken = "gold-token"
	bronze := testkit.WireCodec(t, client.New(ts.URL, nil))
	bronze.AuthToken = "bronze-token"
	if _, err := gold.SubmitTenantJob(ctx, "gold", 4, "gold-load", "workqueue", 0, syntheticWorkload(4000, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := bronze.SubmitTenantJob(ctx, "bronze", 1, "bronze-load", "workqueue", 0, syntheticWorkload(4000, 1)); err != nil {
		t.Fatal(err)
	}

	// Each tenant hammers pulls for the duration; admitted assignments are
	// reported immediately so workers never block on held leases.
	var mu sync.Mutex
	admitted := map[string]int{}
	deadline := time.Now().Add(1500 * time.Millisecond)
	var wg sync.WaitGroup
	for _, tn := range []struct {
		name string
		cl   *client.Client
	}{{"gold", gold}, {"bronze", bronze}} {
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(name string, cl *client.Client) {
				defer wg.Done()
				reg, err := cl.Register(ctx, nil)
				if err != nil {
					t.Errorf("%s register: %v", name, err)
					return
				}
				for time.Now().Before(deadline) {
					resp, err := cl.Pull(ctx, reg.WorkerID, 0)
					if err != nil {
						var ae *client.APIError
						if errors.As(err, &ae) && ae.StatusCode == http.StatusTooManyRequests {
							continue // shed; try again immediately to keep pressure up
						}
						t.Errorf("%s pull: %v", name, err)
						return
					}
					mu.Lock()
					admitted[name]++
					mu.Unlock()
					if resp.Status == api.StatusAssigned {
						if _, err := cl.Report(ctx, resp.Assignment.ID, reg.WorkerID, api.OutcomeSuccess); err != nil {
							t.Errorf("%s report: %v", name, err)
							return
						}
					}
				}
			}(tn.name, tn.cl)
		}
	}
	wg.Wait()

	goldOK, bronzeOK := admitted["gold"], admitted["bronze"]
	shedOf := func(tenant string) float64 {
		v, _ := testkit.Lookup(c.Metrics(), "gridsched_ingress_tenant_sheds_total", "", metrics.Label{Name: "tenant", Value: tenant})
		return v
	}
	t.Logf("admitted pulls: gold=%d bronze=%d; sheds: gold=%v bronze=%v level=%d p99=%s",
		goldOK, bronzeOK, shedOf("gold"), shedOf("bronze"),
		c.ShedLevel.Load(), time.Duration(c.RequestP99Nanos.Load()))
	if shedOf("bronze") == 0 {
		t.Fatal("overload never shed the light tenant")
	}
	if goldOK < 5 {
		t.Fatalf("heavy tenant starved: only %d admitted pulls", goldOK)
	}
	if goldOK < 2*bronzeOK {
		t.Fatalf("weighted shedding inverted: gold=%d bronze=%d, want gold >= 2x bronze",
			goldOK, bronzeOK)
	}
}
