// Command tnserved serves simulation sessions over HTTP/JSON: create a
// model (generated or loaded), run it paced or free-running, stream spikes
// in and out, checkpoint and restore — many sessions concurrently, each on
// its own engine. See the README for the endpoint reference.
//
// Usage:
//
//	tnserved [-addr host:port] [-max-sessions N] [-max-rate HZ] [-workers N]
//	         [-engine chip|compass]
//
// The listen address is printed once the socket is bound, so scripts can
// use -addr 127.0.0.1:0 and parse the assigned port.
//
// On SIGINT or SIGTERM the server stops accepting connections, lets
// in-flight requests finish (bounded by a drain timeout), and closes every
// session so periodic checkpoints flush before exit.
//
// The command is a thin shell by design: all timing and concurrency live
// in internal/runtime and internal/serve, keeping this entry point within
// the determinism rules tnlint enforces on cmd packages.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	// Engine expressions self-register with the sim engine registry.
	_ "truenorth/internal/chip"
	_ "truenorth/internal/compass"
	"truenorth/internal/serve"
	"truenorth/internal/sim"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8484", "listen address (use :0 for an ephemeral port)")
	maxSessions := flag.Int("max-sessions", 0, "maximum concurrently live sessions (0 = scheduler default)")
	maxRate := flag.Float64("max-rate", 0, "aggregate paced ticks/sec admitted across all sessions (0 = unlimited)")
	workers := flag.Int("workers", 0, "scheduler worker pool size (0 = GOMAXPROCS)")
	engine := flag.String("engine", "compass", "default engine for sessions that don't pick one: "+strings.Join(sim.EngineNames(), "|"))
	drain := flag.Duration("drain", 5*time.Second, "how long to wait for in-flight requests on shutdown")
	flag.Parse()

	srv := serve.NewServer(serve.Config{
		MaxSessions:    *maxSessions,
		MaxTicksPerSec: *maxRate,
		Workers:        *workers,
		DefaultEngine:  *engine,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	fmt.Printf("tnserved listening on http://%s\n", ln.Addr())

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	//lint:ignore tnlint/ticksafe HTTP serving is wall-clock I/O, not tick-domain parallelism
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)

	select {
	case sig := <-sigs:
		fmt.Printf("tnserved: %s, shutting down\n", sig)
		// Tell long-lived handlers (open /stream responses) to finish so
		// graceful Shutdown isn't pinned by slow readers past the drain
		// window; new session creation starts refusing with 503.
		srv.BeginShutdown()
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		if err := httpSrv.Shutdown(ctx); err != nil {
			// Stragglers past the drain window (e.g. an open spike stream)
			// are cut off; session state is still closed cleanly below.
			fmt.Fprintln(os.Stderr, "tnserved: drain incomplete:", err)
		}
		cancel()
		srv.Close()
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			fail(err)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tnserved:", err)
	os.Exit(1)
}
