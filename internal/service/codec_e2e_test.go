package service_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gridsched/internal/core"
	"gridsched/internal/service"
	"gridsched/internal/service/api"
	"gridsched/internal/service/client"
	"gridsched/internal/testkit"
)

// replyCodecs is an http.RoundTripper that counts the 2xx replies to
// requests demanding binary by the codec they came back in.
type replyCodecs struct {
	binary, json atomic.Int64
}

func (rc *replyCodecs) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && resp.StatusCode/100 == 2 && api.AcceptsBinary(req.Header.Get("Accept")) {
		if api.IsBinary(resp.Header.Get("Content-Type")) {
			rc.binary.Add(1)
		} else {
			rc.json.Add(1)
		}
	}
	return resp, err
}

// TestBinaryCodecConformance runs the whole dispatch protocol — submit,
// register, stream, batched report, pull, heartbeat, single report — under
// the strict binary codec and then counts the replies on the wire: every
// binary-capable call must have been answered in binary, none in JSON.
// This is the observable the CI codec matrix gates on; a server that
// quietly fell back to JSON would fail here, not pass by accident.
func TestBinaryCodecConformance(t *testing.T) {
	const tasks = 24
	s := newService(t, service.Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	replies := &replyCodecs{}
	cl := client.New(ts.URL, &http.Client{Transport: replies})
	if err := cl.SetCodec("binary"); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w := syntheticWorkload(tasks, 2)
	jobID, err := cl.SubmitJob(ctx, "bin", "workqueue", 1, w)
	if err != nil {
		t.Fatal(err)
	}

	// Streaming leg.
	err = cl.RunWorker(ctx, client.WorkerConfig{
		StreamBatch: 4,
		Execute:     func(context.Context, core.WorkerRef, *api.Assignment) error { return nil },
		OnIdle: func(_ context.Context, openJobs int) (bool, error) {
			return openJobs == 0, nil
		},
	})
	if err != nil {
		t.Fatalf("streaming worker under binary codec: %v", err)
	}
	st, err := cl.Job(ctx, jobID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.JobCompleted || st.Completed != tasks {
		t.Fatalf("job under binary codec: %+v", st)
	}

	// Classic leg: pull, heartbeat, report — the remaining binary-capable
	// endpoints.
	if _, err := cl.SubmitJob(ctx, "bin2", "workqueue", 1, syntheticWorkload(1, 2)); err != nil {
		t.Fatal(err)
	}
	reg, err := cl.Register(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Pull(ctx, reg.WorkerID, time.Second)
	if err != nil || resp.Status != api.StatusAssigned {
		t.Fatalf("pull: %+v, %v", resp, err)
	}
	// The Go client has no heartbeat (a stream renews its own leases), so
	// this one goes out by hand, binary both ways.
	body, err := api.Binary.Marshal(&api.HeartbeatRequest{WorkerID: reg.WorkerID})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/assignments/"+resp.Assignment.ID+"/heartbeat", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", api.ContentTypeBinary)
	req.Header.Set("Accept", api.ContentTypeBinary)
	hr, err := (&http.Client{Transport: replies}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := io.ReadAll(hr.Body)
	hr.Body.Close()
	var hb api.HeartbeatResponse
	if err != nil || hr.StatusCode != http.StatusOK || api.Binary.Unmarshal(reply, &hb) != nil {
		t.Fatalf("heartbeat: %d %q, %v", hr.StatusCode, reply, err)
	}
	if _, err := cl.Report(ctx, resp.Assignment.ID, reg.WorkerID, api.OutcomeSuccess); err != nil {
		t.Fatal(err)
	}

	bin, jsonReplies := replies.binary.Load(), replies.json.Load()
	if bin == 0 {
		t.Fatal("no binary replies observed — binary never reached the wire")
	}
	if jsonReplies != 0 {
		t.Fatalf("%d binary-capable calls answered in JSON under strict binary codec", jsonReplies)
	}
}

// stripAccept simulates a downlevel server that does not speak the binary
// codec: it drops the Accept header, so every reply comes back JSON.
func stripAccept(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Del("Accept")
		next.ServeHTTP(w, r)
	})
}

// TestBinaryCodecRefusesSilentFallback: in strict binary mode a 2xx JSON
// reply to a binary-capable call is an error, never silently decoded —
// otherwise the conformance matrix could "pass" with JSON on the wire. Nor
// is there a mode that falls back: a client speaks json or binary.
func TestBinaryCodecRefusesSilentFallback(t *testing.T) {
	s := newService(t, service.Config{})
	ts := httptest.NewServer(stripAccept(s.Handler()))
	t.Cleanup(ts.Close)
	cl := testkit.WireCodec(t, client.New(ts.URL, nil))
	if err := cl.SetCodec("auto"); err == nil {
		t.Fatal(`SetCodec("auto") accepted`)
	}
	if err := cl.SetCodec("binary"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	_, err := cl.Register(ctx, nil)
	if err == nil || !strings.Contains(err.Error(), "silent") {
		t.Fatalf("register against JSON-only server: %v, want silent-fallback refusal", err)
	}

	// The stream negotiates per-connection and must refuse the same way.
	// Register through a JSON client (pinned, so the conformance matrix's
	// env override cannot flip it) so a worker exists to stream for.
	jcl := testkit.WireCodec(t, client.New(ts.URL, nil))
	if err := jcl.SetCodec("json"); err != nil {
		t.Fatal(err)
	}
	reg, err := jcl.Register(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.StreamLeases(ctx, reg.WorkerID, 2); err == nil || !strings.Contains(err.Error(), "silent") {
		t.Fatalf("stream against JSON-only server: %v, want silent-fallback refusal", err)
	}
}
