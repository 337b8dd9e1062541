package faultinject

import (
	"net"
	"sync"
	"sync/atomic"
)

// Faults is the fault switchboard of a Proxy's link, shared by every
// connection through it.
type Faults struct {
	failFast atomic.Bool // reads and writes error immediately
}

// FailFast makes every read and write fail immediately with ErrInjected.
func (f *Faults) FailFast() { f.failFast.Store(true) }

// Restore clears all faults.
func (f *Faults) Restore() { f.failFast.Store(false) }

// Conn wraps a net.Conn with the shared fault switchboard.
type Conn struct {
	net.Conn
	faults *Faults
}

// WrapConn wraps c; a nil faults gets a private switchboard.
func WrapConn(c net.Conn, faults *Faults) *Conn {
	if faults == nil {
		faults = &Faults{}
	}
	return &Conn{Conn: c, faults: faults}
}

func (c *Conn) Read(p []byte) (int, error) {
	if c.faults.failFast.Load() {
		return 0, ErrInjected
	}
	return c.Conn.Read(p)
}

func (c *Conn) Write(p []byte) (int, error) {
	if c.faults.failFast.Load() {
		return 0, ErrInjected
	}
	return c.Conn.Write(p)
}

// Proxy is a byte-shoveling TCP proxy whose link obeys a fault
// switchboard — the tool for breaking the link between two parties that
// think they are directly connected.
type Proxy struct {
	ln     net.Listener
	target string
	faults *Faults

	mu    sync.Mutex
	conns []net.Conn
	done  chan struct{}
}

// NewProxy listens on addr ("127.0.0.1:0" for an ephemeral port) and
// forwards every connection to target.
func NewProxy(addr, target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, target: target, faults: &Faults{}, done: make(chan struct{})}
	go p.serve()
	return p, nil
}

// Addr is the proxy's listen address — point the client here.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Faults returns the link's switchboard.
func (p *Proxy) Faults() *Faults { return p.faults }

func (p *Proxy) serve() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			_ = c.Close()
			continue
		}
		down := WrapConn(c, p.faults)
		p.track(down, up)
		go shovel(down, up)
		go shovel(up, down)
	}
}

func (p *Proxy) track(conns ...net.Conn) {
	p.mu.Lock()
	select {
	case <-p.done:
		p.mu.Unlock()
		for _, c := range conns {
			_ = c.Close()
		}
		return
	default:
	}
	p.conns = append(p.conns, conns...)
	p.mu.Unlock()
}

func shovel(dst, src net.Conn) {
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	_ = dst.Close()
	_ = src.Close()
}

// CloseConns drops every in-flight connection while keeping the proxy
// accepting new ones.
func (p *Proxy) CloseConns() {
	p.mu.Lock()
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

// Close stops the proxy and drops all connections.
func (p *Proxy) Close() {
	p.mu.Lock()
	select {
	case <-p.done:
	default:
		close(p.done)
	}
	p.mu.Unlock()
	_ = p.ln.Close()
	p.CloseConns()
}
