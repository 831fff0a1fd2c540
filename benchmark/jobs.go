package main

import (
	"encoding/json"
	"fmt"
	"time"

	"truenorth/internal/compass"
	"truenorth/internal/serve"
	"truenorth/internal/sim"
)

// jobSeeds is how many model seeds the jobs cycle over.
const jobSeeds = 8

// The steps of a job, in order; each is one request.
var jobRoutes = [...]string{"create", "run_wait", "checkpoint", "rerun", "restore", "outputs", "delete"}

const (
	stepCreate = iota
	stepRun
	stepCheckpoint
	stepRerun
	stepRestore
	stepOutputs
	stepDelete
)

// jobsResult is what the closed-loop scenario measured.
type jobsResult struct {
	jobMs   []float64 // create → delete
	routeMs [len(jobRoutes)][]float64

	attempted, failed int
	ticks             int // simulated by the jobs that completed
	cpu, wall         time.Duration
	outputBytes       int
	outputSpikes      int
	ckptBytes         int
	digests           [jobSeeds]string // what the jobs of each seed drained
	spikes            [jobSeeds]int
	problems          []string
}

// jobsScenario runs whole-session jobs one after another for d (and at
// least minJobs of them): create → run jobRun ticks and wait → download a
// checkpoint → run jobRerun more → restore the checkpoint → drain the
// outputs → delete. Free-running, one client, closed loop.
func jobsScenario(srv *server, w workload, seed int64, modelPath string, d time.Duration, minJobs int, tr *tracer) (*jobsResult, error) {
	res := &jobsResult{}
	c := newClient(srv.base)
	defer c.close()
	cpu0, _ := procCPU(srv.pid)
	start := time.Now()
	for n := 0; n < minJobs || time.Since(start) < d; n++ {
		if err := res.job(c, w, seed, n, modelPath, tr); err != nil {
			return nil, err
		}
	}
	res.wall = time.Since(start)
	cpu1, _ := procCPU(srv.pid)
	res.cpu = cpu1 - cpu0
	return res, nil
}

// job runs job number n. A refused request fails the job, which then
// misses every latency; only a broken connection aborts the scenario.
func (res *jobsResult) job(c *client, w workload, seed int64, n int, modelPath string, tr *tracer) error {
	res.attempted++
	si := n % jobSeeds
	jobSpan := tr.begin("client.job", 0, int64(n))
	defer tr.end(jobSpan)
	var took [len(jobRoutes)]float64
	var id string
	var ckpt []byte
	ok := true
	step := func(k int, method, path string, body []byte) []byte {
		if !ok {
			return nil
		}
		sp := tr.begin("client."+jobRoutes[k], jobSpan, int64(n))
		start := time.Now()
		status, resp, err := c.do(method, path, body)
		took[k] = float64(time.Since(start)) / 1e6
		tr.end(sp)
		if err != nil || status/100 != 2 {
			ok = false
			res.problems = append(res.problems, fmt.Sprintf("job %d %s: status %d, %v: %.200s", n, jobRoutes[k], status, err, resp))
			return nil
		}
		return resp
	}
	asJSON := func(v any) []byte { raw, _ := json.Marshal(v); return raw }

	jobStart := time.Now()
	var info serve.SessionInfo
	if raw := step(stepCreate, "POST", "/v1/sessions", asJSON(w.jobRequest(seed+int64(si), modelPath))); raw != nil {
		json.Unmarshal(raw, &info) //nolint:errcheck // an empty id fails the next step
		id = info.ID
	}
	base := "/v1/sessions/" + id
	step(stepRun, "POST", base+"/run", asJSON(serve.RunRequest{Ticks: w.jobRun, Wait: true}))
	ckpt = step(stepCheckpoint, "GET", base+"/checkpoint", nil)
	step(stepRerun, "POST", base+"/run", asJSON(serve.RunRequest{Ticks: w.jobRerun, Wait: true}))
	var restored serve.RunResponse
	if raw := step(stepRestore, "POST", base+"/restore", ckpt); raw != nil {
		json.Unmarshal(raw, &restored) //nolint:errcheck // a zero tick fails the check below
	}
	outputs := step(stepOutputs, "GET", base+"/outputs", nil)
	step(stepDelete, "DELETE", base, nil)
	total := float64(time.Since(jobStart)) / 1e6
	if !ok {
		res.failed++
		if id != "" {
			c.do("DELETE", base, nil) //nolint:errcheck // best effort: do not leave the session behind
		}
		return nil
	}

	if restored.Tick != uint64(w.jobRun) {
		res.problems = append(res.problems, fmt.Sprintf("job %d: restore returned tick %d, checkpoint was taken at %d", n, restored.Tick, w.jobRun))
	}
	d := newStreamDigest()
	if err := addOutputs(d, outputs); err != nil {
		return err
	}
	switch {
	case res.digests[si] == "":
		res.digests[si], res.spikes[si] = d.sum(), d.spikes
	case res.digests[si] != d.sum():
		res.problems = append(res.problems, fmt.Sprintf("job %d: outputs differ from an earlier job of the same seed", n))
	}
	res.jobMs = append(res.jobMs, total)
	for k, v := range took {
		res.routeMs[k] = append(res.routeMs[k], v)
	}
	res.ticks += w.jobRun + w.jobRerun
	res.outputBytes += len(outputs)
	res.outputSpikes += d.spikes
	res.ckptBytes = len(ckpt)
	return nil
}

// reference steps each job model on Compass at one worker, directly, and
// compares the spikes before the checkpoint tick with what the jobs
// drained, then keeps stepping each until all together have been timed for
// busy. It returns the ticks per second of every timed window and the first
// engine's fingerprint at the checkpoint tick.
func (res *jobsResult) reference(r *report, w workload, seed int64, busy time.Duration) (rates []float64, fingerprint string, err error) {
	models := jobSeeds
	if !w.netgenCreate {
		models = 1 // every job loaded the same file
	}
	for si := 0; si < models; si++ {
		if res.digests[si] == "" {
			continue
		}
		m, err := buildVerified(w, seed+int64(si), !w.netgenCreate, nil)
		if err != nil {
			return nil, "", err
		}
		eng, err := compass.New(m.mesh, m.cfgs, sim.WithWorkers(1))
		if err != nil {
			return nil, "", err
		}
		ref := &arm{eng: eng, digest: newStreamDigest()}
		ref.window(w.jobRun, nil, "")
		want, spikes := ref.digest.sum(), ref.digest.spikes
		if si == 0 {
			fingerprint = engineFingerprint(eng, ref.digest)
		}
		for ref.busy() < busy/time.Duration(models) {
			ref.window(w.window, nil, "")
		}
		rates = append(rates, ref.rates()...)
		for sj := si; sj < jobSeeds; sj += models {
			if res.digests[sj] != "" && res.digests[sj] != want {
				r.problemf("jobs of seed %d drained %d spikes that differ from compass stepped directly (%d spikes before tick %d)",
					sj, res.spikes[sj], spikes, w.jobRun)
			}
		}
	}
	return rates, fingerprint, nil
}

// runJobs is the untraced run of serve_jobs.
func runJobs(cfg runConfig, w workload, r *report) error {
	const modelPath = "" // the jobs of this workload have the server generate their models
	srv, setups, err := repeatSetup(cfg.reps(serveSetupReps), func() (*server, error) {
		srv, err := startServer(cfg)
		if err != nil {
			return nil, err
		}
		// One job end to end is this workload's settling.
		warm, err := jobsScenario(srv, w, cfg.seed, modelPath, 0, 1, nil)
		if err == nil && warm.failed > 0 {
			err = fmt.Errorf("warm-up job failed: %v", warm.problems)
		}
		if err != nil {
			srv.stop() //nolint:errcheck // the set-up error is the one to report
			return nil, err
		}
		return srv, nil
	})
	if err != nil {
		return err
	}
	defer srv.stop() //nolint:errcheck // for the error paths; the success path checks the first stop

	res, err := jobsScenario(srv, w, cfg.seed, modelPath, cfg.duration(), 1, nil)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(srv.pid)
	if err != nil {
		return err
	}
	if err := srv.stop(); err != nil {
		return err
	}
	for _, p := range res.problems {
		r.problemf("%s", p)
	}
	refRates, fingerprint, err := res.reference(r, w, cfg.seed, min(referenceBusy, cfg.duration()/4))
	if err != nil {
		return err
	}
	r.fingerprint = fingerprint

	r.attempted, r.failed = res.attempted, res.failed
	r.set("setup_s", median(setups), spread(setups))
	r.set("peak_rss_mb", rss, "VmHWM of tnserved")
	r.set("chip_ticks_per_s", float64(res.ticks)/res.wall.Seconds(), fmt.Sprintf("%d ticks per job", w.jobRun+w.jobRerun))
	r.set("compass_ticks_per_s", quantile(refRates, 1), "the job models stepped directly, quietest window; all windows: "+spread(refRates))
	r.set("cpu_us_per_tick", float64(res.cpu.Microseconds())/float64(res.ticks), "tnserved user+system time")
	r.set("op_p50_ms", median(res.jobMs), "one job; "+spread(res.jobMs))
	r.infof("jobs: p95 %.4g ms (median of ten sub-windows)", tail(res.jobMs, 0.95))
	res.describe(r)
	return nil
}

func (res *jobsResult) describe(r *report) {
	for k, name := range jobRoutes {
		r.infof("route %-10s p50 %.4g ms", name, median(res.routeMs[k]))
	}
	if res.outputSpikes > 0 {
		r.infof("outputs: %.1f bytes per spike; checkpoint %d bytes", float64(res.outputBytes)/float64(res.outputSpikes), res.ckptBytes)
	}
}
