package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"roload/internal/client"
	"roload/internal/schema"
	"roload/internal/telemetry"
)

// The fleet-batch closed loop: nproc clients, each posting batches of
// one program's runs with varied engines and step budgets, one run in
// each checkpointing, and every replayEvery-th batch re-posted under
// an earlier batch's id so that its finished runs replay from the
// store. Each client thinks for a fixed time between batches, which
// keeps the backends below saturation, where throughput would only
// track the host's spare CPU. Every batch has the same shape and each
// client walks through seeded permutations of the specs, so every seed
// asks for the same work in another order.
const (
	replayEvery = 4
	thinkTime   = 150 * time.Millisecond
)

// batchEngines is the engine of each run of a batch, in seeded order;
// two of the runs carry a step budget and one checkpoints.
var batchEngines = []string{"blocks", "blocks", "fast", "interp"}

// checkpointEvery is a spec's checkpoint stride: two checkpoints a run.
func checkpointEvery(s *hotSpec) uint64 { return s.prog.ref.Instret/3 + 1 }

// batchRecord is one answered fresh batch, kept for re-posting.
type batchRecord struct {
	id      string
	body    []byte
	bodies  []string
	instret uint64 // per run
}

// batchTally is the closed loop's shared accounting: one sample per
// measured batch, the replays among them, and batches and executed runs
// since the warm-up began.
type batchTally struct {
	mu                sync.Mutex
	rep               *report
	samples           []batchSample
	rerequested, skip int
	retries           int
	batches, executed int
}

// batchSample is one measured batch: when it was sent (from the start
// of the window), its latency, the instructions its executed runs
// retired (0 when it failed or replayed), its runs answered, and
// whether it was a re-post.
type batchSample struct {
	at      time.Duration
	latency float64
	instret uint64
	runs    int
	repost  bool
}

// runFleetBatch drives POST /v1/batch through the gateway of a fleet
// whose backends each keep an artifact store, replicated twice.
func runFleetBatch(ctx context.Context, e *env) (*report, error) {
	rep := newReport()
	rng := rand.New(rand.NewSource(e.seed))
	specs, err := hotSet(ctx, rng, batchScales)
	if err != nil {
		return nil, err
	}
	// refs[i] holds spec i's /v1/run answer, plain and checkpointing.
	refs := make([][2]string, len(specs))
	f, setup, err := launchWarm(ctx, e, true, func(c *client.Client) time.Duration {
		t0 := time.Now()
		for i, s := range specs {
			for k, every := range []uint64{0, checkpointEvery(s)} {
				req := schema.RunRequest{Source: s.prog.src, Harden: s.harden, CheckpointEvery: every}
				reply, err := postRun(ctx, c, telemetry.NewRunID(), req)
				ok := err == nil && reply.Status == 200 && s.matchesReference(reply.Body)
				rep.check(ok, "warming %s (checkpoint every %d): answer differs from the in-process result (err %v)", s.prog.name, every, err)
				if ok {
					refs[i][k] = string(reply.Body)
				}
			}
		}
		return time.Since(t0)
	})
	if err != nil {
		return nil, err
	}
	defer f.stop()
	if e.tweak != nil {
		e.tweak(refs)
	}
	before, err := f.counters(ctx)
	if err != nil {
		return nil, err
	}

	c, tr := newClient(f.gwURL, e.seed)
	defer tr.CloseIdleConnections()
	spans := &spanLog{}
	t := &batchTally{rep: rep}
	start := time.Now()
	var wg sync.WaitGroup
	for ci := 0; ci < runtime.NumCPU(); ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			crng := rand.New(rand.NewSource(e.seed*1000 + int64(ci) + 1))
			var history []*batchRecord
			var deck []int
			for k := 0; ; k++ {
				if k > 0 {
					time.Sleep(thinkTime)
				}
				if time.Since(start) >= warmUp+e.window() {
					break
				}
				at := time.Since(start) - warmUp
				measured := at >= 0
				if len(history) > 0 && k%replayEvery == replayEvery-1 {
					rec := history[crng.Intn(len(history))]
					t.post(ctx, c, e.trace, spans, rec.id, rec.body, at, measured, true, rec.instret, func(r schema.BatchReport) bool {
						ok := len(r.Runs) == len(rec.bodies)
						for j := 0; ok && j < len(r.Runs); j++ {
							ok = r.Runs[j].Skipped && r.Runs[j].Body == rec.bodies[j]
						}
						return ok
					})
					continue
				}
				if len(deck) == 0 {
					deck = crng.Perm(len(specs))
				}
				i := deck[0]
				deck = deck[1:]
				req, want := batchFor(crng, specs[i], refs[i])
				body, err := json.Marshal(req)
				if err != nil {
					t.fail("encoding a batch: %v", err)
					continue
				}
				id := telemetry.NewRunID()
				var got []string
				instret := specs[i].prog.ref.Instret
				if t.post(ctx, c, e.trace, spans, id, body, at, measured, false, instret, func(r schema.BatchReport) bool {
					ok := len(r.Runs) == len(want)
					for j := 0; ok && j < len(r.Runs); j++ {
						ok = r.Runs[j].Status == http.StatusOK && !r.Runs[j].Skipped && r.Runs[j].Body == want[j]
						got = append(got, r.Runs[j].Body)
					}
					return ok
				}) {
					history = append(history, &batchRecord{id: id, body: body, bodies: got, instret: instret})
				}
			}
		}(ci)
	}
	wg.Wait()

	after, err := f.counters(ctx)
	if err != nil {
		return nil, err
	}
	rss := f.peakRSSMB()
	samples := make([][5]float64, len(t.samples)) // at s, latency ms, instructions, runs, re-post
	for i, b := range t.samples {
		samples[i] = [5]float64{b.at.Seconds(), b.latency, float64(b.instret), float64(b.runs), 0}
		if b.repost {
			samples[i][4] = 1
		}
	}
	if err := writeJSON(filepath.Join(e.workDir, "samples.json"), samples); err != nil {
		return nil, err
	}
	// The latency and speed figures are each taken over the window's
	// stretches; throughput counts the whole window.
	var p50s, p90s, mips []float64
	runs := 0
	for _, b := range t.samples {
		runs += b.runs
	}
	for _, g := range stretches(e.window(), len(t.samples), func(i int) time.Duration { return t.samples[i].at }) {
		var lat []float64
		var instret uint64
		var busy float64
		for _, i := range g {
			b := t.samples[i]
			lat = append(lat, b.latency)
			if b.instret > 0 {
				instret += b.instret
				busy += b.latency
			}
		}
		p50s = append(p50s, quantile(append([]float64(nil), lat...), 0.5))
		p90s = append(p90s, quantile(lat, 0.9))
		mips = append(mips, ratio(float64(instret)/1e3, busy))
	}
	opsPerS := float64(runs) / e.window().Seconds()
	if !e.trace {
		rep.set("setup_s", setup)
		rep.set("sim_mips", goodQuartile(mips, false))
		rep.set("op_p50_ms", goodQuartile(p50s, true))
		rep.set("op_tail_ms", goodQuartile(p90s, true))
		rep.set("ops_per_s", opsPerS)
		rep.set("peak_rss_mb", rss)
		return rep, nil
	}
	rep.set("trace.op_p50_ms", goodQuartile(p50s, true))
	rep.set("trace.ops_per_s", opsPerS)
	rep.set("client.retries", float64(t.retries))
	setServiceLayers(rep, spans, before, after)
	rep.set("service.batch_run_ms_p50", quantile(spans.durationsWhere("batch-run", func(s schema.Span) bool {
		return s.Attrs["skipped"] != "true"
	}), 0.5))
	rep.set("service.batch_self_ms_p50", quantile(spans.selfTimes("request"), 0.5))
	batches := float64(t.batches)
	rep.set("store.puts_per_batch", ratio(after.storePuts-before.storePuts, batches))
	rep.set("store.log_bytes_per_run", ratio(after.logBytes-before.logBytes, float64(t.executed)))
	rep.set("replication.pushes_per_batch", ratio(after.pushes-before.pushes, batches))
	rep.set("replication.push_failures", after.pushFailures-before.pushFailures)
	rep.set("batch.replay_ratio", ratio(float64(t.skip), float64(t.rerequested)))
	progs := make([]*program, len(specs))
	for i, s := range specs {
		progs[i] = s.prog
	}
	if err := measureLayers(ctx, progs, e.seed, rep, spans); err != nil {
		return nil, err
	}
	return rep, spans.write(e.workDir)
}

// batchFor draws one fresh batch of spec s and the per-run bodies its
// answer must carry: each run's /v1/run reference, plain or
// checkpointing. The engines come in seeded order, two seeded runs
// carry step budgets and one checkpoints. Step budgets always cover the
// run, so none fails.
func batchFor(rng *rand.Rand, s *hotSpec, refs [2]string) (schema.BatchRequest, []string) {
	req := schema.BatchRequest{Source: s.prog.src, Harden: s.harden}
	budgeted := rng.Perm(len(batchEngines))[:2]
	checkpointed := rng.Intn(len(batchEngines))
	var want []string
	for j, k := range rng.Perm(len(batchEngines)) {
		run := schema.BatchRunSpec{Engine: batchEngines[k]}
		if j == budgeted[0] || j == budgeted[1] {
			run.MaxSteps = s.prog.ref.Instret * uint64(2+rng.Intn(3))
		}
		ref := refs[0]
		if j == checkpointed {
			run.CheckpointEvery = checkpointEvery(s)
			ref = refs[1]
		}
		req.Runs = append(req.Runs, run)
		want = append(want, ref)
	}
	return req, want
}

func (t *batchTally) fail(format string, args ...any) {
	t.mu.Lock()
	t.rep.check(false, format, args...)
	t.mu.Unlock()
}

// post sends one batch under id (a re-post of an answered batch when
// repost is set) at offset at into the window, times it and checks its
// report with ok. A measured batch is booked with the instructions each
// of its runs retires; one sent during the warm-up is only checked. Under tracing it fetches
// the server's span document and merges it with the benchmark's own.
func (t *batchTally) post(ctx context.Context, c *client.Client, trace bool, spans *spanLog, id string, body []byte, at time.Duration, measured, repost bool, instret uint64, ok func(schema.BatchReport) bool) bool {
	var btr *telemetry.Trace
	if trace {
		btr = telemetry.NewTrace(id, "b")
	}
	x := btr.Start("exchange", "")
	t0 := time.Now()
	reply, err := c.Exchange(ctx, "", id, http.MethodPost, "/v1/batch", body)
	lat := ms(time.Since(t0))
	x.End()
	var r schema.BatchReport
	good := err == nil && reply.Status == http.StatusOK
	if good {
		var env schema.Envelope
		good = json.Unmarshal(reply.Body, &env) == nil && env.Open(schema.ServeV1, &r) == nil && ok(r)
	}
	var doc schema.TraceDoc
	var ferr error
	if trace && err == nil {
		doc, ferr = c.FetchTrace(ctx, id)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err == nil {
		t.retries += reply.Attempts - 1
	}
	t.rep.check(good, "batch %s: answer differs from the references (err %v)", id, err)
	if trace && err == nil {
		t.rep.check(ferr == nil, "trace of %s: %v", id, ferr)
		if ferr == nil && measured {
			spans.add(telemetry.Merge(btr.Doc(), doc))
		}
	}
	if !good {
		if measured {
			t.samples = append(t.samples, batchSample{at: at, latency: failedMS})
		}
		return false
	}
	executed := 0
	for _, run := range r.Runs {
		if !run.Skipped {
			executed++
		}
	}
	// The /metrics counters span the warm-up too, so the store ratios
	// count every batch.
	t.batches++
	t.executed += executed
	if !measured {
		return true
	}
	t.skip += len(r.Runs) - executed
	if repost {
		t.rerequested += len(r.Runs)
	}
	t.samples = append(t.samples, batchSample{at: at, latency: lat, instret: instret * uint64(executed), runs: len(r.Runs), repost: repost})
	return true
}
