package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"gridsched"
	"gridsched/internal/core"
	"gridsched/internal/journal"
	"gridsched/internal/metrics"
	"gridsched/internal/middleware"
	"gridsched/internal/partition"
	"gridsched/internal/service"
	"gridsched/internal/service/client"
	"gridsched/internal/storage"
	"gridsched/internal/workload"
)

// gridschedd's flag defaults, repeated for the in-process deployment so the
// traced run schedules over the same pool as the real binary.
const (
	defaultSites          = 10
	defaultWorkersPerSite = 4
	defaultCapacityFiles  = 6000
)

// benchToken authenticates every benchmark client where a deployment runs
// with -auth-tokens. An admin token may submit for any tenant.
const benchToken = "bench-admin-token"

// serverOpts selects the gridschedd configuration a workload needs; the
// zero value is the daemon's defaults (in-memory, standalone, open).
type serverOpts struct {
	dataDir   string // non-empty: -data-dir with -fsync batch
	partIndex int
	partCount int  // > 1: one partition of a routed deployment
	ingress   bool // -auth-tokens, -rate-limit, -shed-p99 set so the whole chain runs, generously enough that nothing is refused
}

// deployment starts the programs under test: the real binaries as child
// processes, or — inproc, the per-layer runs — the same handlers in this
// process, still reached over loopback TCP, with rec's span-recording
// wrappers between the layers (a nil rec wraps nothing).
type deployment struct {
	sup    *supervisor
	rec    *recorder
	inproc bool
}

// server is one running gridschedd or gridrouter.
type server struct {
	base  string
	child *child
	// in-process only
	svc  *service.Service
	http *http.Server
	done chan struct{}
}

func (d *deployment) tokensFile() (string, error) {
	path := filepath.Join(d.sup.runDir, "tokens.conf")
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	return path, os.WriteFile(path, []byte(benchToken+" - admin\n"), 0o600)
}

func (d *deployment) startServer(o serverOpts) (*server, error) {
	if d.inproc {
		return d.startServerInProc(o)
	}
	var args []string
	if o.dataDir != "" {
		args = append(args, "-data-dir", o.dataDir, "-fsync", "batch")
	}
	if o.partCount > 1 {
		args = append(args, "-partition-index", strconv.Itoa(o.partIndex), "-partition-count", strconv.Itoa(o.partCount))
	}
	if o.ingress {
		tokens, err := d.tokensFile()
		if err != nil {
			return nil, err
		}
		args = append(args, "-auth-tokens", tokens, "-rate-limit", "1000000", "-rate-burst", "1000000", "-shed-p99", "30s")
	}
	c, err := d.sup.start("gridschedd", d.sup.bin("gridschedd"), args...)
	if err != nil {
		return nil, err
	}
	return &server{base: c.base, child: c}, nil
}

// startServerInProc assembles what cmd/gridschedd's run does — service,
// ingress chain, listener — with the recorder's wrappers between the
// layers and its scheduler decorator in the factory.
func (d *deployment) startServerInProc(o serverOpts) (*server, error) {
	factory := gridsched.SchedulerFactory()
	cfg := gridsched.ServiceConfig{
		Topology: gridsched.ServiceTopology{
			Sites: defaultSites, WorkersPerSite: defaultWorkersPerSite,
			CapacityFiles: defaultCapacityFiles, Policy: storage.LRU,
		},
		PartitionIndex: o.partIndex,
		PartitionCount: o.partCount,
		DataDir:        o.dataDir,
		Fsync:          journal.SyncBatch,
		NewScheduler: func(alg string, w *workload.Workload, topo service.Topology, seed int64) (core.Scheduler, error) {
			var start int64
			if d.rec != nil {
				start = d.rec.now()
			}
			s, err := factory(alg, w, topo, seed)
			if err != nil || d.rec == nil {
				return s, err
			}
			d.rec.coreCall(opBuild, core.WorkerRef{Site: -1, Worker: len(w.Tasks)}, start)
			return d.rec.wrapScheduler(s), nil
		},
	}
	svc, err := gridsched.NewService(cfg)
	if err != nil {
		return nil, err
	}
	mw := middleware.Config{Counters: metrics.NewIngressCounters(), TenantWeight: svc.TenantWeight}
	if o.ingress {
		mw.Tokens = middleware.NewTokenStore(map[string]middleware.Principal{benchToken: {Admin: true}})
		mw.RateLimit, mw.RateBurst, mw.ShedP99 = 1e6, 1e6, 30*time.Second
	}
	h := d.rec.traceHandler(spanIngress, middleware.Ingress(mw, d.rec.traceHandler(spanService, svc.Handler())))
	s, err := serveInProc(h)
	if err != nil {
		svc.Close()
		return nil, err
	}
	s.svc = svc
	return s, nil
}

func serveInProc(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{base: "http://" + ln.Addr().String(), http: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		if err := s.http.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "bench: in-process server:", err)
		}
	}()
	return s, nil
}

func (d *deployment) startRouter(partitions []string) (*server, error) {
	if d.inproc {
		rt, err := partition.New(partition.Config{Partitions: partitions})
		if err != nil {
			return nil, err
		}
		return serveInProc(d.rec.traceHandler(spanRouter, rt.Handler()))
	}
	c, err := d.sup.start("gridrouter", d.sup.bin("gridrouter"), "-partitions", strings.Join(partitions, ","))
	if err != nil {
		return nil, err
	}
	return &server{base: c.base, child: c}, nil
}

func (s *server) waitReady(ctx context.Context) error {
	if s.child != nil {
		return s.child.waitReady(ctx)
	}
	return waitReady(ctx, s.base, s.done, 60*time.Second)
}

// stop ends the server the way the workload's crash model says: SIGKILL for
// a child; for the in-process stand-in, closing listener and connections
// and then the service.
func (s *server) stop() {
	if s.child != nil {
		s.child.kill()
		return
	}
	_ = s.http.Close()
	<-s.done
	if s.svc != nil {
		s.svc.Close()
	}
}

// peakRSSMB is the server's high-water resident set: VmHWM of the child, or
// of this process when the server runs inside it. Read it before stop.
func (s *server) peakRSSMB() float64 {
	pid := os.Getpid()
	if s.child != nil {
		pid = s.child.pid()
	}
	v, _ := procStatusMB(pid, "VmHWM")
	return v
}

// newClient builds a gridschedd client with its own connection pool, so
// each benchmark worker keeps its own connections as separate worker
// processes would.
func (d *deployment) newClient(base, codec string, auth bool) (*client.Client, error) {
	tr := &http.Transport{MaxIdleConnsPerHost: 8, IdleConnTimeout: time.Minute}
	var rt http.RoundTripper = tr
	if d.rec != nil {
		rt = traceTransport{base: tr}
	}
	cl := client.New(base, &http.Client{Transport: rt})
	cl.ResubmitWindow = -1 // a refused submit is a failed operation, not something to hide behind a retry
	if auth {
		cl.AuthToken = benchToken
	}
	if err := cl.SetCodec(codec); err != nil {
		return nil, err
	}
	return cl, nil
}
