package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"time"

	"polystyrene"
	"polystyrene/internal/scenario"
	"polystyrene/internal/serve"
	"polystyrene/internal/serve/loadgen"
	"polystyrene/internal/shape"
	"polystyrene/internal/sim"
)

// serveCmd runs a Polystyrene overlay as a live service: the engine
// advances gossip rounds on one goroutine while an HTTP frontend answers
// lookups, neighbour queries and node inspections from epoch-published
// read snapshots (see internal/serve) — the paper's "keeps serving while
// dying and recovering" claim, made operational.
//
//	poly serve                            # 80x40 torus workload on :4600
//	poly serve -w 24 -h 12 -interval 20ms # smaller, faster rounds
//	poly serve -fail-at 50 -reinject-at 100 -rounds 200
//	poly serve -profiles 256              # DECENT-style per-user profile points
//	poly serve -selftest -duration 2s     # embedded load generator, no sockets to babysit
//
// Endpoints: /lookup?q=x,y · /neighbors?id=N&k=K · /node/{id} · /stats ·
// /healthz. Every response carries its epoch and round, so staleness is
// observable; before the first epoch and after shutdown starts the
// service answers 503 warming/draining.
//
// SIGINT/SIGTERM save a final generation into -checkpoint-dir, if set,
// and drain gracefully (see service.drain); -resume-latest resumes the
// soak. -selftest runs the serving soak in-process (see runSelftest).
type serveCmd struct {
	scen                      scenarioFlags
	ckpt                      ckptFlags
	addr                      string
	rounds, profiles, workers int
	interval, duration        time.Duration
	selftest                  bool
}

func (c *serveCmd) flags(fs *flag.FlagSet) {
	fs.StringVar(&c.addr, "addr", "127.0.0.1:4600", "HTTP listen address")
	c.scen.register(fs, -1, -1, false)
	fs.DurationVar(&c.interval, "interval", 50*time.Millisecond,
		"wall-clock pacing per gossip round (0 = as fast as possible)")
	fs.IntVar(&c.rounds, "rounds", 0,
		"stop advancing after this many rounds and keep serving the last epoch (0 = run until signalled)")
	fs.IntVar(&c.profiles, "profiles", 0,
		"serve the DECENT-style profiles workload with this many per-user profile points instead of the torus scenario")
	c.ckpt.register(fs)
	fs.BoolVar(&c.selftest, "selftest", false,
		"run the in-process serving soak with the embedded load generator and exit")
	fs.DurationVar(&c.duration, "duration", 2*time.Second, "selftest duration")
	fs.IntVar(&c.workers, "workers", 4, "selftest load-generator workers")
}

func (c *serveCmd) run(out, _ io.Writer) error {
	if err := c.ckpt.validate(); err != nil {
		return err
	}
	if s := c.scen; s.failAt >= 0 && s.reinjectAt >= 0 && s.reinjectAt < s.failAt {
		return fmt.Errorf("-reinject-at %d precedes -fail-at %d", s.reinjectAt, s.failAt)
	}
	switch {
	case c.selftest:
		return c.runSelftest(out)
	case c.profiles > 0 && c.ckpt.dir != "":
		return errors.New("-checkpoint-dir needs the torus scenario workload (checkpointing does not cover -profiles)")
	case c.profiles > 0:
		return c.serveProfiles(out)
	}
	return c.serveScenario(out)
}

// HTTP server limits. The queries are small GETs, so these only bound
// slow or abusive clients: a client that has not sent its whole request
// header within readHeaderTimeout is disconnected (no slow-loris can hold
// a connection open), an idle keep-alive connection is closed after
// idleTimeout, and a request header over maxHeaderBytes is answered 431.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 60 * time.Second
	maxHeaderBytes    = 8 << 10
)

// headerTimeout is the server's ReadHeaderTimeout: readHeaderTimeout,
// which the slow-loris test shortens.
var headerTimeout = readHeaderTimeout

// service bundles the HTTP half: publisher, frontend, listener, server.
type service struct {
	pub   *serve.Publisher
	front *serve.Frontend
	ln    net.Listener
	srv   *http.Server
	done  chan error
}

func startService(addr string, pub *serve.Publisher) (*service, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	front := serve.NewFrontend(pub)
	srv := &http.Server{
		Handler:           front,
		ReadHeaderTimeout: headerTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
	s := &service{pub: pub, front: front, ln: ln, srv: srv, done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// drain is the graceful shutdown: close the publisher first so new
// queries see 503 draining, let in-flight requests finish, then shut the
// listener down.
func (s *service) drain(out io.Writer) {
	s.pub.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	err := <-s.done
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(out, "# server error during drain: %v\n", err)
	}
	fmt.Fprintf(out, "# drained after %d queries\n", s.front.Queries())
}

func (c *serveCmd) serveScenario(out io.Writer) error {
	cfg := c.scen.config()
	cfg.SkipMetrics = true
	sc, err := scenario.New(cfg)
	if err != nil {
		return err
	}
	defer sc.Close()

	resumed, err := c.ckpt.open(sc)
	if err != nil {
		return err
	}
	if resumed != nil {
		fmt.Fprintf(out, "# resumed from %s at round %d\n", resumed.Name, resumed.Round)
	}

	// Register the signal handler before the listen address is printed:
	// anyone who has seen the banner may signal us, and the signal must
	// cancel ctx, not kill the process.
	ctx, release := stopContext()
	defer release()

	pub := sc.ServePublisher()
	svc, err := startService(c.addr, pub)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# serving torus %dx%d (K=%d) on http://%s\n",
		cfg.W, cfg.H, cfg.K, svc.ln.Addr())

	ph := c.scen.phases(math.MaxInt32)
	c.pace(ctx, out, sc.Engine.Round, func() {
		r := sc.Engine.Round()
		if err := c.ckpt.autoSave(r); err != nil {
			fmt.Fprintf(out, "# auto-checkpoint at round %d failed: %v\n", r, err)
		}
		scenario.DrivePhases(sc, ph, r+1, nil)
	})

	r := sc.Engine.Round()
	saveErr := c.ckpt.saveFinal(out, r)
	sc.StopServing()
	svc.drain(out)
	fmt.Fprintf(out, "# stopped at round %d with %d live nodes\n", r, sc.Engine.NumLive())
	return saveErr
}

// pace runs step once per round, sleeping -interval after each, until
// -rounds have run or ctx is cancelled. A finished schedule keeps
// serving its final epoch until ctx is cancelled.
func (c *serveCmd) pace(ctx context.Context, out io.Writer, round func() int, step func()) {
	for (c.rounds <= 0 || round() < c.rounds) && ctx.Err() == nil {
		step()
		if c.interval > 0 {
			time.Sleep(c.interval)
		}
	}
	if ctx.Err() == nil {
		fmt.Fprintf(out, "# round schedule complete at round %d; serving final epoch\n", round())
		<-ctx.Done()
	}
}

// serveProfiles serves the profile shape of examples/profiles — 24 0/1
// topics, 4 interest communities — with its replication factor (K=6:
// small shapes need deeper replication to survive a whole community
// vanishing).
func (c *serveCmd) serveProfiles(out io.Writer) error {
	const topics, communities = 24, 4
	perCommunity := max(c.profiles/communities, 1)
	pts := shape.Profiles(perCommunity, topics, communities)
	profiles := make([][]float64, len(pts))
	for i, p := range pts {
		profiles[i] = p
	}
	sys, err := polystyrene.NewSystem(polystyrene.SystemConfig{
		Seed:              c.scen.seed,
		Space:             polystyrene.Hamming(topics),
		Shape:             profiles,
		ReplicationFactor: 6,
	})
	if err != nil {
		return err
	}
	// Signal handler first (see serveScenario).
	ctx, release := stopContext()
	defer release()

	pub := sys.ServePublisher()
	svc, err := startService(c.addr, pub)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# serving %d profile points (%d communities x %d users, Hamming(%d)) on http://%s\n",
		len(pts), communities, perCommunity, topics, svc.ln.Addr())
	c.pace(ctx, out, sys.Round, func() { sys.Run(1) })
	sys.StopServing()
	svc.drain(out)
	fmt.Fprintf(out, "# stopped at round %d with %d live nodes\n", sys.Round(), sys.NumLive())
	return nil
}

// runSelftest runs the whole serving story in one process: a scenario
// paced to fit three phases into the requested duration — calm,
// catastrophe + recovery (right half fails, then reinjects), steady
// churn (1% of the population replaced every round) — while the load
// generator drives the real HTTP stack over loopback, one measurement
// window per phase. It prints sustained QPS and p50/p90/p99/p999 latency
// per phase, and fails unless every phase served queries without errors.
func (c *serveCmd) runSelftest(out io.Writer) error {
	cfg := c.scen.config()
	cfg.SkipMetrics = true
	if cfg.W*cfg.H > 40*20 {
		// The selftest is a smoke check, not a capacity run: cap the grid
		// so rounds stay much shorter than the measurement windows.
		cfg.W, cfg.H = 40, 20
	}
	sc, err := scenario.New(cfg)
	if err != nil {
		return err
	}
	defer sc.Close()
	pub := sc.ServePublisher()
	svc, err := startService("127.0.0.1:0", pub)
	if err != nil {
		return err
	}
	base := "http://" + svc.ln.Addr().String()
	fmt.Fprintf(out, "# selftest: torus %dx%d (K=%d), %v, %d workers, %s\n",
		cfg.W, cfg.H, cfg.K, c.duration, c.workers, base)

	const end = 150
	failAt, churnFrom := end/3, 2*end/3
	ph := scenario.Phases{FailAt: failAt, ReinjectAt: churnFrom, End: end}
	total := cfg.W * cfg.H

	ctx, stop := context.WithCancel(context.Background())
	driveDone := make(chan struct{})
	start := time.Now()
	// Pace against a deadline, not a fixed interval: round r should
	// finish by 80% of duration * r/end, so the schedule lands inside
	// the measurement windows (catastrophe in window 2, churn in window
	// 3) even when round compute eats into the pacing budget.
	budget := c.duration * 4 / 5
	go func() {
		defer close(driveDone)
		scenario.DrivePhases(sc, ph, end, func(round int) bool {
			if ctx.Err() != nil {
				return false
			}
			if round > churnFrom {
				// Steady churn: replace 1% of the population each round.
				// All engine mutation stays on this driving goroutine.
				for i := 0; i < max(total/100, 1); i++ {
					if id := sc.Engine.RandomLive(); id != sim.None {
						sc.Engine.Kill(id)
					}
				}
				sc.Reinject(total - sc.Engine.NumLive())
			}
			target := start.Add(budget * time.Duration(round+1) / time.Duration(end))
			if d := time.Until(target); d > 0 {
				time.Sleep(d)
			}
			return true
		})
	}()

	tgt := loadgen.HTTPTarget{
		Base: base,
		Client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: c.workers,
		}},
		Pub: pub,
	}
	window := c.duration / 3
	phases := []string{"calm", "catastrophe+recovery", "churn"}
	results := make([]loadgen.Result, len(phases))
	for i, name := range phases {
		results[i] = loadgen.Run(tgt, loadgen.Options{
			Seed: c.scen.seed + uint64(i), Workers: c.workers, Duration: window, NeighborEvery: 4,
		})
		fmt.Fprintf(out, "phase %-21s %s\n", name+":", results[i].String())
	}
	stop()
	<-driveDone
	sc.StopServing()
	svc.drain(out)

	for i, name := range phases {
		if results[i].Ops == 0 {
			return fmt.Errorf("selftest: phase %s served zero queries", name)
		}
		if results[i].Errors > 0 {
			return fmt.Errorf("selftest: phase %s hit %d errors", name, results[i].Errors)
		}
	}
	fmt.Fprintf(out, "selftest ok: %d queries across %d phases, final round %d, %d live\n",
		svc.front.Queries(), len(phases), sc.Engine.Round(), sc.Engine.NumLive())
	return nil
}
