// Command gridrouter fronts a horizontally partitioned gridschedd
// deployment (docs/PARTITIONING.md): N independent daemons, each started
// with -partition-index i -partition-count N, behind one stateless
// router that forwards every request to the partition owning its key.
//
// Usage:
//
//	gridrouter -addr :8080 -partitions http://10.0.0.1:8081,http://10.0.0.2:8081
//
// The -partitions list is positional: the i-th URL must be the daemon
// running with -partition-index i. Routing is pure arithmetic on the
// request (ids carry their partition's residue; submissions hash their
// idempotency key), so any number of router replicas can run behind a
// plain load balancer with no coordination.
//
// Cross-partition reads are aggregated: GET /v1/jobs, /v1/tenants, and
// /v1/workers merge every partition's answer (marking unreachable
// partitions in the X-Gridsched-Partitions-Down header instead of
// failing the read), /metrics federates each partition's exposition with
// a partition label, /readyz is ready only when every partition is, and
// GET /v1/partitions serves the live topology.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gridsched/internal/partition"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "gridrouter:", err)
		os.Exit(1)
	}
}

// run starts the router and blocks until ctx is cancelled. onReady, when
// non-nil, receives the bound address (tests bind ":0").
func run(ctx context.Context, args []string, onReady func(addr string)) error {
	fs, addr, cfg := flags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(cfg.Partitions) == 0 {
		return fmt.Errorf("-partitions is required (comma-separated base URLs in partition-index order)")
	}
	rt, err := partition.New(*cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: rt.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	log.Printf("gridrouter: listening on %s, routing %d partitions: %s", ln.Addr(), len(cfg.Partitions), strings.Join(cfg.Partitions, " "))
	if onReady != nil {
		onReady(ln.Addr().String())
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx)
	}()
	err = <-serveErr
	<-done
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// flags declares gridrouter's flag set: the listen address, and the
// router's Config field by field.
func flags() (*flag.FlagSet, *string, *partition.Config) {
	cfg := &partition.Config{}
	fs := flag.NewFlagSet("gridrouter", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	fs.Func("partitions", "comma-separated partition base URLs, in partition-index order", func(s string) error {
		cfg.Partitions = nil
		for _, u := range strings.Split(s, ",") {
			if u = strings.TrimSpace(u); u != "" {
				cfg.Partitions = append(cfg.Partitions, u)
			}
		}
		return nil
	})
	fs.DurationVar(&cfg.AggregateTimeout, "aggregate-timeout", 10*time.Second, "per-partition time budget for aggregated reads and probes")
	return fs, addr, cfg
}
