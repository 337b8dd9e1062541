// Command gridschedd runs the networked scheduler service: a daemon that
// accepts whole Bag-of-Tasks workloads as jobs (POST /v1/jobs, one
// algorithm choice per job) and serves them to pull-based remote workers
// (cmd/gridworker, or anything speaking the protocol of
// internal/service/api) with lease-based fault tolerance.
//
// Usage:
//
//	gridschedd -addr :8080 -sites 10 -workers 4 -capacity 6000 -lease 15s
//	gridschedd -data-dir /var/lib/gridschedd          # durable: journal + snapshots
//	gridschedd -data-dir d -fsync always              # fsync before every acknowledgement
//	gridschedd -data-dir d -snapshot-every 10000      # compaction cadence in journal records
//	gridschedd -tenant-quota 8                        # multi-tenant fair share (docs/ARCHITECTURE.md)
//	gridschedd -auth-tokens tokens.conf               # per-tenant bearer auth (SIGHUP reloads the file)
//	gridschedd -rate-limit 500 -rate-burst 1000       # token-bucket throttling per IP and tenant
//	gridschedd -shed-p99 250ms                        # shed pulls/submits when p99 breaches the bound
//	gridschedd -partition-index 0 -partition-count 2  # one partition of a scaled-out deployment (front with gridrouter; docs/PARTITIONING.md)
//	gridschedd -data-dir d2 -follow http://leader:8080     # hot standby replicating the leader's journal
//	gridschedd -data-dir d2 -follow ... -auto-promote 5s   # ... that self-promotes when the leader goes silent
//	gridschedd -pprof   # also serve net/http/pprof under /debug/pprof/
//
// Every instance fronts the service with the production ingress chain of
// internal/middleware (docs/INGRESS.md): panic recovery, per-request trace
// IDs (X-Trace-Id) with buffered error logging, and — when the flags above
// enable them — bearer-token auth, weighted rate limiting, and
// latency-based load shedding that sheds low-weight tenants first.
// /healthz, /readyz, and /metrics always bypass auth, throttling, and
// shedding.
//
// Jobs may carry a tenant and an integer weight; the dispatch path
// arbitrates runnable jobs by weighted fair share and enforces per-tenant
// in-flight quotas (-tenant-quota server-wide, PUT /v1/tenants/{tenant}
// per tenant). Per-tenant share targets, achieved shares, and throttle
// counts are exported at /metrics.
//
// With -data-dir, every externally visible mutation is journaled before it
// is acknowledged and a restart replays snapshot+journal, reconstructing
// queues, leases-turned-requeues, scheduler state (including the
// randomized dispatch stream), and fair-share arbitration state exactly;
// workers reconnect by re-registering (the Go client does this
// transparently). The listener binds BEFORE recovery starts: GET /healthz
// answers 200 (the process is alive) and GET /readyz answers 503
// "recovering" until replay completes, then 200 "ready" — the probe pair
// orchestrators want. /readyz also reports the node's replication role and,
// on a standby, its LSN lag. See README "Operations" and docs/PROTOCOL.md.
//
// With -follow, the daemon is a hot standby instead: it streams the
// leader's journal over GET /v1/replication/stream, persists it locally,
// serves read-only status (mutations answer 421 with the leader's URL,
// which the Go client follows), and becomes the leader on POST
// /v1/replication/promote — or by itself, with -auto-promote, once the
// leader has been silent too long. See docs/REPLICATION.md.
//
// Then, from anywhere:
//
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/readyz
//	curl -s -X POST localhost:8080/v1/jobs -d '{"name":"sweep","algorithm":"combined.2","workload":{...}}'
//	gridworker -server http://localhost:8080 -n 8
//	curl -s localhost:8080/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"gridsched"
	"gridsched/internal/journal"
	"gridsched/internal/metrics"
	"gridsched/internal/middleware"
	"gridsched/internal/service/api"
	"gridsched/internal/storage"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "gridschedd:", err)
		os.Exit(1)
	}
}

// swappable routes requests to whichever handler is currently installed:
// the bootstrap probe surface while recovery runs, the full service
// afterwards.
type swappable struct {
	h atomic.Pointer[http.Handler]
}

func (s *swappable) store(h http.Handler) { s.h.Store(&h) }
func (s *swappable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

// bootstrapHandler is what the daemon serves between bind and recovery
// completion: alive but not ready.
func bootstrapHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, `{"status":"starting"}`)
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, http.StatusServiceUnavailable, api.Readiness{Status: "recovering", Role: api.RoleRecovering})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"error":"recovering; retry after /readyz reports ready"}`)
	})
	return mux
}

// run starts the daemon and blocks until ctx is cancelled. onReady, when
// non-nil, receives the bound address once the service answers traffic
// (tests bind ":0").
func run(ctx context.Context, args []string, onReady func(addr string)) error {
	fs, d := flags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if d.follow.Leader != "" && d.svc.DataDir == "" {
		return fmt.Errorf("-follow requires -data-dir (the standby's reason to exist is the replicated journal)")
	}

	// Bind before recovery: a restarting durable daemon is reachable for
	// liveness/readiness probes while it replays, instead of looking dead
	// to its orchestrator for the whole replay.
	ln, err := net.Listen("tcp", d.addr)
	if err != nil {
		return err
	}
	wrapper := &swappable{}
	wrapper.store(bootstrapHandler())
	srv := &http.Server{Handler: wrapper}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	if d.tokens != "" {
		store, err := middleware.LoadTokenFile(d.tokens)
		if err != nil {
			_ = srv.Close()
			<-serveErr
			return err
		}
		d.ingress.Tokens = store
		log.Printf("gridschedd: auth enabled, %d tokens loaded from %s (SIGHUP reloads)", store.Len(), d.tokens)
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		go func() {
			for range hup {
				if err := store.Reload(); err != nil {
					log.Printf("gridschedd: token reload failed, previous table kept: %v", err)
					continue
				}
				log.Printf("gridschedd: reloaded %d tokens from %s", store.Len(), d.tokens)
			}
		}()
	}
	d.ingress.Counters = metrics.NewIngressCounters()
	// buildIngress fronts h with the full production middleware chain (and
	// -pprof's handlers). tenantWeight may be nil — a follower has no
	// fair-share arbiter to resolve weights against.
	buildIngress := func(h http.Handler, tenantWeight func(string) int64) http.Handler {
		mw := d.ingress
		mw.TenantWeight = tenantWeight
		handler := middleware.Ingress(mw, h)
		if d.pprof {
			// Mount the profiling handlers next to the service without going
			// through http.DefaultServeMux, so -pprof stays strictly opt-in.
			mux := http.NewServeMux()
			mux.Handle("/", handler)
			mux.HandleFunc("/debug/pprof/", httppprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
			handler = mux
		}
		return handler
	}

	// closeApp is what shutdown tears down; in standby mode promotion swaps
	// it from "close the follower" to "close the promoted service".
	var closeApp atomic.Pointer[func()]

	if d.follow.Leader != "" {
		if err := runFollower(ctx, followerEnv{
			d: d, wrapper: wrapper, buildIngress: buildIngress, closeApp: &closeApp,
		}); err != nil {
			_ = srv.Close()
			<-serveErr
			return err
		}
		log.Printf("gridschedd: standby listening on %s, replicating %s (promote: POST /v1/replication/promote)",
			ln.Addr(), d.follow.Leader)
	} else {
		recoverStart := time.Now()
		svc, err := gridsched.NewService(d.svc)
		if err != nil {
			_ = srv.Close()
			<-serveErr
			return err
		}
		if d.svc.DataDir != "" {
			c := svc.Counters()
			log.Printf("gridschedd: recovered %s in %s: %d records (%d events folded, %d re-asked); %s (fsync=%s, snapshot every %d records)",
				d.svc.DataDir, time.Since(recoverStart).Round(time.Millisecond),
				c.ReplayRecords.Load(), c.ReplayFolded.Load(), c.ReplayReasked.Load(),
				c.ReplayPhaseSummary(), d.svc.Fsync, d.svc.SnapshotEvery)
		}
		closer := func() { svc.Close() }
		closeApp.Store(&closer)
		wrapper.store(buildIngress(svc.Handler(), svc.TenantWeight))
		log.Printf("gridschedd: listening on %s (%d sites x %d workers, capacity %d files, lease %s)",
			ln.Addr(), d.svc.Sites, d.svc.WorkersPerSite, d.svc.CapacityFiles, d.svc.LeaseTTL)
		if n := d.svc.PartitionCount; n > 1 {
			log.Printf("gridschedd: partition %d of %d (minting ids in residue class %d mod %d; front with gridrouter)",
				d.svc.PartitionIndex, n, d.svc.PartitionIndex, n)
		}
	}
	if onReady != nil {
		onReady(ln.Addr().String())
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		// Closing the service first fails parked long polls fast, so
		// Shutdown does not wait out their poll budgets.
		(*closeApp.Load())()
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx)
	}()
	err = <-serveErr
	<-done
	(*closeApp.Load())() // idempotent: Close and Follower.Close both tolerate a second call
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// daemon is what gridschedd's flags set: each flag is declared once, onto
// the field the daemon reads.
type daemon struct {
	addr   string
	pprof  bool
	tokens string // the -auth-tokens file, loaded into ingress.Tokens

	svc         gridsched.ServiceConfig
	ingress     middleware.Config
	follow      gridsched.FollowerConfig
	autoPromote time.Duration
}

// flags declares gridschedd's flag set over a daemon holding its defaults.
func flags() (*flag.FlagSet, *daemon) {
	d := &daemon{svc: gridsched.ServiceConfig{
		Topology: gridsched.ServiceTopology{Policy: storage.LRU},
		Fsync:    journal.SyncBatch,
	}}
	fs := flag.NewFlagSet("gridschedd", flag.ContinueOnError)
	fs.StringVar(&d.addr, "addr", ":8080", "listen address")
	fs.IntVar(&d.svc.Sites, "sites", 10, "sites in the worker pool")
	fs.IntVar(&d.svc.WorkersPerSite, "workers", 4, "worker slots per site")
	fs.IntVar(&d.svc.CapacityFiles, "capacity", 6000, "per-site store capacity in files")
	enumVar(fs, &d.svc.Policy, "policy", "store replacement policy: lru or fifo", func(s string) (storage.Policy, error) {
		for _, p := range []storage.Policy{storage.LRU, storage.FIFO} {
			if s == p.String() {
				return p, nil
			}
		}
		return 0, fmt.Errorf("unknown policy %q (want lru or fifo)", s)
	})
	fs.DurationVar(&d.svc.LeaseTTL, "lease", 15*time.Second, "worker/assignment lease TTL")
	fs.DurationVar(&d.svc.SweepInterval, "sweep", 0, "lease sweep interval (0: lease/4)")
	fs.IntVar(&d.svc.TenantMaxInFlight, "tenant-quota", 0, "per-tenant cap on concurrently leased assignments (0: unlimited; override per tenant via PUT /v1/tenants/{tenant})")
	fs.BoolVar(&d.pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/")
	fs.StringVar(&d.tokens, "auth-tokens", "", "bearer-token file enabling per-tenant auth (\"<token> <tenant> [admin]\" per line; SIGHUP reloads)")
	fs.Float64Var(&d.ingress.RateLimit, "rate-limit", 0, "sustained requests/second allowed per client IP (tenant buckets scale by weight; 0 disables)")
	fs.Float64Var(&d.ingress.RateBurst, "rate-burst", 0, "rate-limit bucket depth (0: 2x rate-limit)")
	fs.DurationVar(&d.ingress.ShedP99, "shed-p99", 0, "shed pulls/submits with 429 when request p99 exceeds this bound, low-weight tenants first (0 disables)")
	fs.StringVar(&d.svc.DataDir, "data-dir", "", "journal+snapshot directory; empty disables durability")
	enumVar(fs, &d.svc.Fsync, "fsync", "journal fsync mode: always, batch or never", journal.ParseMode)
	fs.IntVar(&d.svc.SnapshotEvery, "snapshot-every", 4096, "journal records between compacting snapshots")
	fs.BoolVar(&d.svc.Speculation, "speculate", false, "re-execute straggler leases speculatively (first report wins; see docs/SCHEDULING.md)")
	fs.IntVar(&d.svc.PartitionIndex, "partition-index", 0, "this daemon's partition index in a partitioned deployment (see docs/PARTITIONING.md)")
	fs.IntVar(&d.svc.PartitionCount, "partition-count", 0, "total partitions in the deployment (0 or 1: standalone); ids mint in this partition's residue class")
	fs.StringVar(&d.follow.Leader, "follow", "", "run as a hot standby replicating the leader at this base URL (requires -data-dir); read-only until promoted")
	fs.StringVar(&d.follow.Token, "replication-token", "", "bearer token presented to the leader's replication stream (an admin token when the leader runs -auth-tokens)")
	fs.DurationVar(&d.autoPromote, "auto-promote", 0, "standby only: promote automatically after this long without leader contact (0: manual promotion via POST /v1/replication/promote)")
	return fs, d
}

// enumVar is fs.Func for a field whose String names its value: the flag
// sets *p through parse, and -help shows *p's value as the default.
func enumVar[T fmt.Stringer](fs *flag.FlagSet, p *T, name, usage string, parse func(string) (T, error)) {
	fs.Func(name, usage, func(s string) (err error) {
		*p, err = parse(s)
		return err
	})
	fs.Lookup(name).DefValue = (*p).String()
}
