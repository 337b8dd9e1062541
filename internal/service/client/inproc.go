package client

import (
	"bytes"
	"fmt"
	"io"
	"iter"
	"net/http"
	"slices"
	"sync"
	"time"
)

// InProcess returns a Client whose requests are served by h directly —
// full HTTP protocol, no sockets. A process that embeds gridschedd reaches
// it this way (examples/live-cluster); tests use it to avoid port
// allocation. Every round trip runs the handler on a coroutine of its own
// and returns when the handler commits its response, as under net/http: at
// its first Flush, or when it returns. Until then what it writes is
// buffered; after a Flush the handler runs on by itself and every Write
// goes down a pipe to the body's reader, so a stream on any route delivers
// its frames as they are written. The caller waits for the commit however
// long it takes, as if it had called the handler itself: a handler that
// waits must watch its request's context, as every gridschedd handler does.
func InProcess(h http.Handler) *Client {
	return New("http://gridschedd.inproc", &http.Client{Transport: &handlerTransport{h: h}})
}

// idleHandler is how long a handler coroutine waits for the next round
// trip before it exits.
const idleHandler = 5 * time.Second

// handlerTransport serves each round trip with its handler. Like a
// keep-alive connection under net/http, a coroutine that served one round
// trip serves the next: a fresh one would grow its stack again under every
// handler, which doubles the cost of a dispatch round trip. A switch to a
// coroutine and back passes no scheduler queue, so a reply costs what a
// direct call of the handler costs.
type handlerTransport struct {
	h    http.Handler
	mu   sync.Mutex
	idle []*handlerCoro // the most recently used last
}

// handlerCoro serves one round trip at a time.
type handlerCoro struct {
	w      *responseWriter
	resume func() (struct{}, bool) // runs w's handler to its commit, or on from there to its return
	stop   func()
	expire *time.Timer // retires it after idleHandler in t.idle
}

func (t *handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	w := &responseWriter{req: req, header: make(http.Header)}
	c := t.take()
	c.w = w
	c.resume()
	if w.pw == nil {
		t.put(c)
	} else {
		go func() { // the stream runs on to its return
			c.resume()
			t.put(c)
		}()
	}
	if err := req.Context().Err(); err != nil {
		if w.resp != nil {
			w.resp.Body.Close()
		}
		return nil, err
	}
	return w.resp, w.err
}

// take returns the most recently used idle coroutine, or a new one.
func (t *handlerTransport) take() *handlerCoro {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.idle); n > 0 {
		c := t.idle[n-1]
		t.idle = t.idle[:n-1]
		c.expire.Stop()
		return c
	}
	c := &handlerCoro{}
	c.resume, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		for ok := true; ok; ok = yield(struct{}{}) {
			c.w.yield = yield
			c.w.serve(t.h)
		}
	})
	c.expire = time.AfterFunc(idleHandler, func() { t.retire(c) })
	c.expire.Stop()
	return c
}

func (t *handlerTransport) put(c *handlerCoro) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c.w = nil
	t.idle = append(t.idle, c)
	c.expire.Reset(idleHandler)
}

// retire ends c unless a round trip took it after its timer fired.
func (t *handlerTransport) retire(c *handlerCoro) {
	t.mu.Lock()
	i := slices.Index(t.idle, c)
	if i >= 0 {
		t.idle = slices.Delete(t.idle, i, i+1)
	}
	t.mu.Unlock()
	if i >= 0 {
		c.stop()
	}
}

// responseWriter is the handler's http.ResponseWriter for one round trip.
type responseWriter struct {
	req    *http.Request
	header http.Header
	code   int          // from WriteHeader; 0 means 200
	buf    bytes.Buffer // written before the commit
	body   body         // the response body, unless it streams
	pw     *io.PipeWriter
	yield  func(struct{}) bool // back to RoundTrip

	committed bool
	resp      *http.Response // set at the commit
	err       error          // why there is no response
}

// serve runs the handler and ends the response.
func (w *responseWriter) serve(h http.Handler) {
	defer func() {
		// A panic is what a broken connection is to a net/http client: an
		// error from Do before the commit, from the body after it.
		var err error
		if p := recover(); p != nil {
			err = fmt.Errorf("client: in-process handler for %s panicked: %v", w.req.URL.Path, p)
		}
		if !w.committed {
			w.commit(false, err)
		}
		if w.pw != nil {
			w.pw.CloseWithError(err)
		}
	}()
	h.ServeHTTP(w, w.req)
}

func (w *responseWriter) Header() http.Header { return w.header }

func (w *responseWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *responseWriter) Write(p []byte) (int, error) {
	if w.pw != nil {
		return w.pw.Write(p)
	}
	return w.buf.Write(p)
}

// Flush commits the response as a stream and returns it to the caller,
// then hands the reader what was written before. A failed write means the
// reader is gone, which the handler's next Write reports.
func (w *responseWriter) Flush() {
	if !w.committed {
		w.commit(true, nil)
		w.yield(struct{}{})
	}
	if w.buf.Len() > 0 {
		_, _ = w.buf.WriteTo(w.pw)
	}
}

// commit builds the response: with stream, one whose body the handler
// writes from now on; without, the buffered body of a handler that has
// returned; with err, none.
func (w *responseWriter) commit(stream bool, err error) {
	w.committed = true
	if w.err = err; err != nil {
		return
	}
	code := w.code
	if code == 0 {
		code = http.StatusOK
	}
	w.resp = &http.Response{
		Status:        http.StatusText(code),
		StatusCode:    code,
		Proto:         w.req.Proto,
		ProtoMajor:    w.req.ProtoMajor,
		ProtoMinor:    w.req.ProtoMinor,
		Header:        w.header,
		Body:          &w.body,
		ContentLength: int64(w.buf.Len()),
		Request:       w.req,
	}
	w.body.Reset(w.buf.Bytes())
	if stream {
		var pr *io.PipeReader
		pr, w.pw = io.Pipe()
		w.resp.Header, w.resp.Body, w.resp.ContentLength = w.header.Clone(), pr, -1
	}
}

// body is a response body read from memory.
type body struct{ bytes.Reader }

func (*body) Close() error { return nil }
