package client

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestIdleHandlerRetires: the idle timer retires a handler coroutine that
// waits in the idle list, and the next round trip starts a fresh one; a
// timer that fires as a round trip takes its coroutine retires nothing.
func TestIdleHandlerRetires(t *testing.T) {
	tr := &handlerTransport{h: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})}
	roundTrip := func() {
		t.Helper()
		resp, err := tr.RoundTrip(httptest.NewRequest(http.MethodGet, "http://gridschedd.inproc/healthz", nil))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	idle := func() []*handlerCoro {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		return append([]*handlerCoro(nil), tr.idle...)
	}

	c := tr.take()
	tr.retire(c) // its timer fired just as a round trip took it
	tr.put(c)
	roundTrip()
	if got := idle(); len(got) != 1 || got[0] != c {
		t.Fatalf("idle list %v, want the one coroutine, still serving", got)
	}

	tr.retire(c) // its timer fired while it waited
	if got := idle(); len(got) != 0 {
		t.Fatalf("idle list %v after retire, want empty", got)
	}
	roundTrip()
	if got := idle(); len(got) != 1 || got[0] == c {
		t.Fatalf("idle list %v, want one fresh coroutine", got)
	}
}
