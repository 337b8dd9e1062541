package client

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"sync"
)

// InProcess returns a Client whose requests are served by h directly —
// full HTTP protocol, no sockets. A process that embeds gridschedd reaches
// it this way (examples/live-cluster); tests use it to avoid port
// allocation. Long polls work unchanged (the handler blocks on the
// request's context like it would under net/http), and streaming endpoints
// get a real pipe: frames written by the handler are readable immediately,
// not after the handler returns.
func InProcess(h http.Handler) *Client {
	return New("http://gridschedd.inproc", &http.Client{Transport: handlerTransport{h: h}})
}

// handlerTransport serves each round-trip by invoking the handler
// synchronously on the caller's goroutine — except streaming paths, whose
// handlers run for the connection's lifetime and so get their own
// goroutine plus a pipe.
type handlerTransport struct {
	h http.Handler
}

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	// Streaming endpoints (the lease stream, the replication stream) hold
	// the response open and flush frames incrementally. Buffering them
	// would deadlock: the recorder's body never "completes". A pipe plus a
	// handler goroutine reproduces net/http's chunked-response behavior.
	if strings.HasSuffix(req.URL.Path, "/stream") {
		return t.stream(req)
	}
	rec := &responseRecorder{code: http.StatusOK, header: make(http.Header)}
	t.h.ServeHTTP(rec, req)
	return &http.Response{
		Status:        http.StatusText(rec.code),
		StatusCode:    rec.code,
		Proto:         req.Proto,
		ProtoMajor:    req.ProtoMajor,
		ProtoMinor:    req.ProtoMinor,
		Header:        rec.header,
		Body:          io.NopCloser(bytes.NewReader(rec.body.Bytes())),
		ContentLength: int64(rec.body.Len()),
		Request:       req,
	}, nil
}

func (t handlerTransport) stream(req *http.Request) (*http.Response, error) {
	pr, pw := io.Pipe()
	sr := &streamRecorder{code: http.StatusOK, header: make(http.Header), pw: pw, committed: make(chan struct{})}
	go func() {
		t.h.ServeHTTP(sr, req)
		sr.commit()
		pw.Close()
	}()
	// Block until the handler commits the status line — exactly when a real
	// client's Do would return. The body then streams through the pipe;
	// closing it (or cancelling the request context) ends the handler.
	<-sr.committed
	return &http.Response{
		Status:        http.StatusText(sr.code),
		StatusCode:    sr.code,
		Proto:         req.Proto,
		ProtoMajor:    req.ProtoMajor,
		ProtoMinor:    req.ProtoMinor,
		Header:        sr.header,
		Body:          pr,
		ContentLength: -1,
		Request:       req,
	}, nil
}

// responseRecorder is the minimal http.ResponseWriter the buffered
// handlers need (no hijacking, no flushing semantics beyond buffering).
type responseRecorder struct {
	code        int
	wroteHeader bool
	header      http.Header
	body        bytes.Buffer
}

func (r *responseRecorder) Header() http.Header { return r.header }

func (r *responseRecorder) WriteHeader(code int) {
	if !r.wroteHeader {
		r.code = code
		r.wroteHeader = true
	}
}

func (r *responseRecorder) Write(p []byte) (int, error) {
	r.wroteHeader = true
	return r.body.Write(p)
}

// streamRecorder is the streaming http.ResponseWriter: the first
// WriteHeader/Write commits the response (unblocking RoundTrip), and every
// Write goes straight down the pipe. Flush is a no-op — pipe writes are
// visible to the reader immediately — but implementing http.Flusher is
// what tells the handler streaming is possible at all.
type streamRecorder struct {
	code   int
	header http.Header
	pw     *io.PipeWriter

	once      sync.Once
	committed chan struct{}
}

func (r *streamRecorder) Header() http.Header { return r.header }

func (r *streamRecorder) WriteHeader(code int) {
	r.once.Do(func() {
		r.code = code
		close(r.committed)
	})
}

func (r *streamRecorder) Write(p []byte) (int, error) {
	r.commit()
	return r.pw.Write(p)
}

func (r *streamRecorder) Flush() {}

func (r *streamRecorder) commit() {
	r.once.Do(func() { close(r.committed) })
}
