package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gridsched/internal/faultinject"
	"gridsched/internal/service/api"
)

// sweepState reads the client's sweep-backoff bookkeeping.
func sweepState(c *Client) (fails int, delay, pending time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sweepFails, c.sweepDelay, c.sweepSleep
}

// faultedEndpoint puts a fail-fast faultinject proxy in front of srv and
// returns its URL: connections open but every byte errors, the transport
// failure flavor of a crashed-but-port-bound node.
func faultedEndpoint(t *testing.T, srv *httptest.Server) (string, *faultinject.Faults) {
	t.Helper()
	p, err := faultinject.NewProxy("127.0.0.1:0", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	p.Faults().FailFast()
	return "http://" + p.Addr(), p.Faults()
}

func healthStub(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(api.Health{Status: "ok"})
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestSweepBackoffFullyDownDeployment: when every endpoint fails in one
// rotation, the client inserts a capped, growing delay before the next
// sweep instead of hammering the dead deployment in a tight loop — and
// recovers instantly once an endpoint answers.
func TestSweepBackoffFullyDownDeployment(t *testing.T) {
	srv := healthStub(t)
	ep1, f1 := faultedEndpoint(t, srv)
	ep2, f2 := faultedEndpoint(t, srv)
	c := wireCodec(t, NewMulti([]string{ep1, ep2}, nil))
	ctx := context.Background()

	start := time.Now()
	for i := 0; i < 6; i++ {
		if err := c.health(ctx); err == nil {
			t.Fatal("health against a fully faulted deployment succeeded")
		}
	}
	elapsed := time.Since(start)

	// Six calls are three full failed rotations; the sleeps consumed by
	// calls 3 and 5 each drew at least sweepInitial/2 from the jitter
	// envelope [d/2, d).
	if elapsed < sweepInitial {
		t.Fatalf("6 failed sweeps took %s; backoff (≥%s of sleeps) not applied", elapsed, sweepInitial)
	}
	if fails, delay, _ := sweepState(c); delay == 0 {
		t.Fatalf("after 3 failed rotations: sweepDelay=0 (fails=%d)", fails)
	}

	// One endpoint heals: the next successful response resets the whole
	// schedule.
	f1.Restore()
	f2.Restore()
	if err := c.health(ctx); err != nil {
		t.Fatalf("health after faults cleared: %v", err)
	}
	if fails, delay, pending := sweepState(c); fails != 0 || delay != 0 || pending != 0 {
		t.Fatalf("reachable endpoint did not reset sweep state: fails=%d delay=%s pending=%s", fails, delay, pending)
	}
}

// TestSweepBackoffNotArmedWithLiveEndpoint: a rotation that reaches any
// live endpoint never arms the backoff — failover stays immediate when
// only some endpoints are down.
func TestSweepBackoffNotArmedWithLiveEndpoint(t *testing.T) {
	srv := healthStub(t)
	dead, _ := faultedEndpoint(t, srv)
	c := wireCodec(t, NewMulti([]string{dead, srv.URL}, nil))
	ctx := context.Background()

	for i := 0; i < 6; i++ {
		if err := c.health(ctx); err != nil && i > 0 {
			t.Fatalf("call %d with a live endpoint in rotation: %v", i, err)
		}
	}
	if fails, delay, pending := sweepState(c); delay != 0 || pending != 0 {
		t.Fatalf("backoff armed despite live endpoint: fails=%d delay=%s pending=%s", fails, delay, pending)
	}
}

// TestSweepBackoffSingleEndpoint: a single-endpoint client has no
// rotation to pace — errors surface immediately, unchanged.
func TestSweepBackoffSingleEndpoint(t *testing.T) {
	srv := healthStub(t)
	dead, _ := faultedEndpoint(t, srv)
	c := wireCodec(t, New(dead, nil))
	ctx := context.Background()

	start := time.Now()
	for i := 0; i < 4; i++ {
		if err := c.health(ctx); err == nil {
			t.Fatal("health against a faulted endpoint succeeded")
		}
	}
	if fails, delay, pending := sweepState(c); fails != 0 || delay != 0 || pending != 0 {
		t.Fatalf("single-endpoint client armed sweep backoff: fails=%d delay=%s pending=%s", fails, delay, pending)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("single-endpoint failures took %s; no backoff should apply", elapsed)
	}
}
