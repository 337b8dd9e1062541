package main

import (
	"context"
	"errors"
	"log"
	"net/http"
	"sync/atomic"
	"time"

	"gridsched"
	"gridsched/internal/service"
	"gridsched/internal/service/api"
)

// followerEnv is everything runFollower needs from run(): the daemon's
// settings (the service configuration a promotion will use, the
// replication flags), and the hooks into the serving machinery (handler
// swap, shutdown).
type followerEnv struct {
	d            *daemon
	wrapper      *swappable
	buildIngress func(h http.Handler, tenantWeight func(string) int64) http.Handler
	closeApp     *atomic.Pointer[func()]
}

// runFollower starts the hot standby: replicate the leader's journal,
// serve the read-only surface, and flip to leader on POST
// /v1/replication/promote (or automatically after -auto-promote without
// leader contact). Promotion runs the full recovery path over the
// replicated data dir and swaps the promoted service's handler in; the
// listener, its port, and the ingress chain all stay.
func runFollower(ctx context.Context, env followerEnv) error {
	fl, err := gridsched.NewFollower(env.d.svc, env.d.follow)
	if err != nil {
		return err
	}
	closer := func() { fl.Close() }
	env.closeApp.Store(&closer)

	// promote is shared by the HTTP endpoint and the auto-promote watcher;
	// Follower.Promote single-flights, so exactly one caller installs the
	// promoted service.
	promote := func(reason string) (*gridsched.Service, error) {
		start := time.Now()
		svc, err := fl.Promote()
		if err != nil {
			return nil, err
		}
		newCloser := func() { svc.Close() }
		env.closeApp.Store(&newCloser)
		env.wrapper.store(env.buildIngress(svc.Handler(), svc.TenantWeight))
		log.Printf("gridschedd: promoted to leader in %s (%s), serving at lsn %d",
			time.Since(start).Round(time.Millisecond), reason, svc.ReplicationLastLSN())
		return svc, nil
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/replication/promote", func(w http.ResponseWriter, r *http.Request) {
		svc, err := promote("requested via API")
		if err != nil {
			code := http.StatusInternalServerError
			var se *service.Error
			if errors.As(err, &se) {
				code = se.Code
			}
			api.WriteJSON(w, code, api.ErrorResponse{Error: err.Error()})
			return
		}
		api.WriteJSON(w, http.StatusOK, api.PromoteResponse{Role: api.RoleLeader, LastLSN: svc.ReplicationLastLSN()})
	})
	mux.Handle("/", fl.Handler())
	env.wrapper.store(env.buildIngress(mux, nil))

	if env.d.autoPromote > 0 {
		go watchLeader(ctx, fl, env.d.autoPromote, promote)
	}
	return nil
}

// watchLeader promotes the standby once the leader has been silent —
// no frame, snapshot, or heartbeat — for longer than grace. The stream
// heartbeats every second, so grace is effectively the leader lease.
func watchLeader(ctx context.Context, fl *gridsched.Follower, grace time.Duration, promote func(string) (*gridsched.Service, error)) {
	poll := grace / 4
	if poll < 50*time.Millisecond {
		poll = 50 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if fl.Promoted() {
			return
		}
		if err := fl.Halted(); err != nil {
			// A halted stream means divergence or a dead local journal,
			// not a dead leader; auto-promoting that state could fork
			// history against a live leader. Promotion stays available as
			// an explicit operator decision via the API.
			log.Printf("gridschedd: auto-promotion disabled, follower halted: %v", err)
			return
		}
		silent := time.Since(fl.LastContact())
		if silent < grace {
			continue
		}
		if _, err := promote("leader silent for " + silent.Round(time.Millisecond).String()); err != nil {
			log.Printf("gridschedd: auto-promotion failed: %v", err)
		}
		return
	}
}
