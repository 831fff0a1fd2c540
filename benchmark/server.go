package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"truenorth/internal/serve"
)

// server is the tnserved a serving scenario drives: a spawned process in
// an untraced run, a serve.Server behind a loopback listener in a traced
// one (so that the handler and the layers under it can be timed directly).
type server struct {
	base    string       // http://host:port
	pid     int          // the process that holds the engines
	handler http.Handler // set only in-process

	stopOnce sync.Once
	stopFn   func() error
	stopErr  error
}

// stop shuts the server down and waits until it has ended. Later calls
// return the first call's result.
func (s *server) stop() error {
	s.stopOnce.Do(func() { s.stopErr = s.stopFn() })
	return s.stopErr
}

// spawnServer starts bin on an ephemeral port with the chip engine as its
// default and the thread budget of the host rule.
func spawnServer(bin string) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-engine", "chip")
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", benchProcs()))
	cmd.Stderr = os.Stderr
	// Should this process die without reaching stop (a panic, a signal, a
	// driver's kill on timeout), the kernel takes the server down with it.
	// No goroutine here is locked to a thread, so the spawning thread lives
	// as long as the process does.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	stop := func() error {
		cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			cmd.Process.Kill() //nolint:errcheck
			return fmt.Errorf("tnserved did not exit on SIGTERM: %v", <-done)
		}
	}
	// The first line names the bound address; the rest is drained so the
	// server never blocks on a full pipe.
	lines := bufio.NewReader(stdout)
	addr := make(chan string, 1)
	go func() {
		first, _ := lines.ReadString('\n')
		addr <- first
		io.Copy(io.Discard, lines) //nolint:errcheck
	}()
	select {
	case first := <-addr:
		_, url, ok := strings.Cut(strings.TrimSpace(first), "listening on ")
		if !ok {
			stop() //nolint:errcheck
			return nil, fmt.Errorf("tnserved printed %q instead of its address", first)
		}
		return &server{base: url, pid: cmd.Process.Pid, stopFn: stop}, nil
	case <-time.After(20 * time.Second):
		stop() //nolint:errcheck
		return nil, fmt.Errorf("tnserved did not report its address")
	}
}

// startServer spawns cfg.serverBin, or hosts the server in this process
// when there is none (the smoke test has no binary to spawn).
func startServer(cfg runConfig) (*server, error) {
	if cfg.serverBin == "" {
		return inprocServer()
	}
	return spawnServer(cfg.serverBin)
}

// repeatSetup sets the serving system up reps times, stopping every server
// but the last, and returns that one with the seconds each set-up took.
// setUp stops its own server when it fails.
func repeatSetup(reps int, setUp func() (*server, error)) (srv *server, seconds []float64, err error) {
	for i := 0; i < reps; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, nil, err
			}
		}
		start := time.Now()
		if srv, err = setUp(); err != nil {
			return nil, nil, err
		}
		seconds = append(seconds, time.Since(start).Seconds())
	}
	return srv, seconds, nil
}

// inprocServer hosts serve.NewServer in this process on a loopback port.
func inprocServer() (*server, error) {
	srv := serve.NewServer(serve.Config{DefaultEngine: "chip"})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	handler := srv.Handler()
	hs := &http.Server{Handler: handler}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) //nolint:errcheck // ErrServerClosed on stop
	}()
	stop := func() error {
		srv.BeginShutdown()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		srv.Close()
		<-done
		return err
	}
	return &server{base: "http://" + ln.Addr().String(), pid: os.Getpid(), handler: handler, stopFn: stop}, nil
}

// client sends requests over one keep-alive connection of its own.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response.
func (c *client) do(method, path string, body []byte) (status int, resp []byte, err error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	res, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer res.Body.Close()
	resp, err = io.ReadAll(res.Body)
	return res.StatusCode, resp, err
}

// call is do with JSON on both sides; a non-2xx status is an error.
func (c *client) call(method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	status, resp, err := c.do(method, path, body)
	if err != nil {
		return err
	}
	if status/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(resp))
	}
	if out != nil {
		return json.Unmarshal(resp, out)
	}
	return nil
}

// jobRequest is how a job of the workload asks the server for its
// free-running session.
func (w workload) jobRequest(seed int64, modelPath string) serve.CreateRequest {
	req := serve.CreateRequest{Engine: "chip", ModelPath: modelPath}
	if w.netgenCreate {
		req.ModelPath = ""
		req.Netgen = &serve.NetgenSpec{
			Grid: w.grid, RateHz: w.rateHz, SynPerNeuron: w.syn, Seed: seed, OutputEvery: w.outputEvery,
		}
	}
	return req
}
