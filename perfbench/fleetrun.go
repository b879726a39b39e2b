package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"roload/internal/client"
	"roload/internal/schema"
	"roload/internal/telemetry"
)

// The fleet-run open loop: a nominal-rate phase, then a ladder of
// higher fixed rates. Latency is timed from each request's due time,
// and a request counts against its phase's limit if it fails.
const (
	nominalRPS   = 100.0
	coldEvery    = 10  // one request in this many carries a source the image cache has never seen
	nominalShare = 0.7 // of the window spent at the nominal rate
	sloP99MS     = 100.0
	genWorkers   = 64 // the generator's fixed sender pool
	warmUp       = 3 * time.Second
	// failedMS is the latency a failed request is booked at: longer
	// than any limit, so it always misses it.
	failedMS = 1e6
)

// ladder is the fixed rates after the nominal phase, in requests/s: one
// the fleet serves within the limit, and one far past its capacity on
// the reference host (about 250 req/s, 350 at its fastest).
var ladder = []float64{1.5 * nominalRPS, 5 * nominalRPS}

// arrival is one scheduled request of the open loop.
type arrival struct {
	due   time.Duration // from the start of the window
	phase int
	spec  int
	cold  bool
}

// phaseSpec is one fixed-rate phase of the schedule.
type phaseSpec struct {
	rate       float64
	start, dur time.Duration
	n          int // arrivals scheduled in the phase
}

// schedule lays out the seeded arrivals: within each phase, request i
// is due at (i + u)/rate for a seeded u in [0, 1), so every phase
// carries exactly rate×duration requests. A warm-up phase at the
// nominal rate comes first; it is checked but not measured. Requests
// walk through seeded permutations of the specs, and one in every
// coldEvery (at a seeded place) is cold, so every seed asks for the
// same mix of work and only its order differs.
func schedule(rng *rand.Rand, window time.Duration, nSpecs int) ([]phaseSpec, []arrival) {
	nominal := time.Duration(float64(window) * nominalShare)
	rest := (window - nominal) / time.Duration(len(ladder))
	phases := []phaseSpec{{rate: nominalRPS, dur: warmUp}, {rate: nominalRPS, dur: nominal}}
	for _, r := range ladder {
		phases = append(phases, phaseSpec{rate: r, dur: rest})
	}
	var out []arrival
	var at time.Duration
	var deck []int
	cold := 0
	for pi := range phases {
		ph := &phases[pi]
		ph.start = at
		ph.n = int(ph.rate * ph.dur.Seconds())
		for i := 0; i < ph.n; i++ {
			if len(deck) == 0 {
				deck = rng.Perm(nSpecs)
			}
			if len(out)%coldEvery == 0 {
				cold = len(out) + rng.Intn(coldEvery)
			}
			off := time.Duration((float64(i) + rng.Float64()) / ph.rate * float64(time.Second))
			out = append(out, arrival{due: at + off, phase: pi, spec: deck[0], cold: len(out) == cold})
			deck = deck[1:]
		}
		at += ph.dur
	}
	return phases, out
}

// outcome is what one open-loop request measured.
type outcome struct {
	latency  float64 // ms from due to answer; failedMS when it failed
	lateness float64 // ms the generator sent it after it was due
	done     time.Duration
	attempts int
	instret  uint64
}

// runFleetRun drives POST /v1/run through the gateway with the
// benchmark's own open-loop generator.
func runFleetRun(ctx context.Context, e *env) (*report, error) {
	rep := newReport()
	rng := rand.New(rand.NewSource(e.seed))
	specs, err := hotSet(ctx, rng, fleetScales)
	if err != nil {
		return nil, err
	}
	phases, arrivals := schedule(rng, e.window(), len(specs))
	canonical := make([][]byte, len(specs)) // first answer body per spec

	f, setup, err := launchWarm(ctx, e, false, func(c *client.Client) time.Duration {
		t0 := time.Now()
		for i, s := range specs {
			reply, err := postRun(ctx, c, telemetry.NewRunID(), schema.RunRequest{Source: s.prog.src, Harden: s.harden})
			ok := err == nil && reply.Status == 200 && s.matchesReference(reply.Body)
			rep.check(ok, "warming %s: answer differs from the in-process result (err %v)", s.prog.name, err)
			if ok {
				canonical[i] = reply.Body
			}
		}
		return time.Since(t0)
	})
	if err != nil {
		return nil, err
	}
	defer f.stop()
	if e.tweak != nil {
		e.tweak(canonical)
	}
	before, err := f.counters(ctx)
	if err != nil {
		return nil, err
	}

	c, tr := newClient(f.gwURL, e.seed)
	defer tr.CloseIdleConnections()
	spans := &spanLog{}
	outs := make([]outcome, len(arrivals))
	var mu sync.Mutex // guards rep across the senders
	queue := make(chan int, len(arrivals))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < genWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				a := arrivals[i]
				s := specs[a.spec]
				src := s.prog.src
				if a.cold {
					src += fmt.Sprintf("\n// cold request %d of seed %d\n", i, e.seed)
				}
				o := &outs[i]
				o.lateness = ms(time.Since(start) - a.due)
				runID := telemetry.NewRunID()
				var btr *telemetry.Trace
				if e.trace {
					btr = telemetry.NewTrace(runID, "b")
				}
				x := btr.Start("exchange", "")
				reply, err := postRun(ctx, c, runID, schema.RunRequest{Source: src, Harden: s.harden})
				x.End()
				o.done = time.Since(start)
				o.latency = ms(o.done - a.due)
				if err == nil {
					o.attempts = reply.Attempts
				}
				ok := err == nil && reply.Status == 200 && bytes.Equal(reply.Body, canonical[a.spec])
				if ok {
					o.instret = s.prog.ref.Instret
				} else {
					o.latency = failedMS
				}
				mu.Lock()
				rep.check(ok, "run %d (%s): answer differs from the reference (err %v)", i, s.prog.name, err)
				mu.Unlock()
				if e.trace && err == nil {
					doc, ferr := c.FetchTrace(ctx, runID)
					mu.Lock()
					rep.check(ferr == nil, "trace of %s: %v", runID, ferr)
					mu.Unlock()
					if ferr == nil {
						spans.add(telemetry.Merge(btr.Doc(), doc))
					}
				}
			}
		}()
	}
	for i, a := range arrivals {
		if d := time.Until(start.Add(a.due)); d > 0 {
			time.Sleep(d)
		}
		queue <- i
	}
	close(queue)
	wg.Wait()

	after, err := f.counters(ctx)
	if err != nil {
		return nil, err
	}
	rss := f.peakRSSMB()
	samples := make([][4]float64, len(arrivals)) // phase, due s, latency ms, instructions
	for i, a := range arrivals {
		samples[i] = [4]float64{float64(a.phase), a.due.Seconds(), outs[i].latency, float64(outs[i].instret)}
	}
	if err := writeJSON(filepath.Join(e.workDir, "samples.json"), samples); err != nil {
		return nil, err
	}

	// The nominal phase gives the latency figures; the ladder the
	// highest rate served within the limit, with no failure and no
	// growing backlog (every lower rate too), as the throughput that
	// phase achieved.
	var late []float64
	atSLO, climbing := 0.0, true
	for pi := 1; pi < len(phases); pi++ { // phase 0 is the warm-up
		ph := phases[pi]
		var lat []float64
		var lastDone time.Duration
		failed := 0
		for i, a := range arrivals {
			if a.phase != pi {
				continue
			}
			o := outs[i]
			lat = append(lat, o.latency)
			late = append(late, o.lateness)
			lastDone = max(lastDone, o.done)
			if o.latency == failedMS {
				failed++
			}
		}
		q := len(lat) / 4
		growing := q > 0 && median(lat[len(lat)-q:]) > 2*median(lat[:q])+10
		p99 := quantile(append([]float64(nil), lat...), 0.99)
		fmt.Fprintf(os.Stderr, "perfbench: phase %d: %.0f req/s, %d requests, %d failed, p50 %.2f ms, p99 %.2f ms, growing backlog %v\n",
			pi, ph.rate, len(lat), failed, median(lat), p99, growing)
		climbing = climbing && failed == 0 && p99 <= sloP99MS && !growing
		if climbing {
			atSLO = float64(ph.n) / (lastDone - ph.start).Seconds()
		}
	}
	// The nominal phase's figures are each taken over its stretches.
	var nominal []int
	for i, a := range arrivals {
		if a.phase == 1 {
			nominal = append(nominal, i)
		}
	}
	nom := phases[1]
	var p50s, p90s, mips []float64
	for _, g := range stretches(nom.dur, len(nominal), func(j int) time.Duration { return arrivals[nominal[j]].due - nom.start }) {
		var lat []float64
		var instret uint64
		var busy float64
		for _, j := range g {
			o := outs[nominal[j]]
			lat = append(lat, o.latency)
			if o.latency != failedMS {
				instret += o.instret
				busy += o.latency
			}
		}
		p50s = append(p50s, quantile(append([]float64(nil), lat...), 0.5))
		p90s = append(p90s, quantile(lat, 0.9))
		mips = append(mips, ratio(float64(instret)/1e3, busy))
	}
	p50 := goodQuartile(p50s, true)
	if !e.trace {
		rep.set("setup_s", setup)
		rep.set("sim_mips", goodQuartile(mips, false))
		rep.set("op_p50_ms", p50)
		rep.set("op_tail_ms", goodQuartile(p90s, true))
		rep.set("ops_per_s", atSLO)
		rep.set("peak_rss_mb", rss)
		return rep, nil
	}
	retries := 0
	for _, o := range outs {
		retries += max(o.attempts-1, 0)
	}
	rep.set("trace.op_p50_ms", p50)
	rep.set("trace.ops_per_s", atSLO)
	rep.set("loadgen.lateness_ms_p99", quantile(late, 0.99))
	rep.set("client.retries", float64(retries))
	setServiceLayers(rep, spans, before, after)
	progs := make([]*program, len(specs))
	for i, s := range specs {
		progs[i] = s.prog
	}
	if err := measureLayers(ctx, progs, e.seed, rep, spans); err != nil {
		return nil, err
	}
	return rep, spans.write(e.workDir)
}

// launchWarm starts the fleet nine times, each time timing launch to
// admission plus warm, and keeps the last one running; setup_s is the
// median of the nine.
func launchWarm(ctx context.Context, e *env, store bool, warm func(*client.Client) time.Duration) (*fleet, float64, error) {
	var setups []float64
	for r := 0; ; r++ {
		f, launch, err := startFleet(ctx, e, fmt.Sprintf("setup%d", r), store)
		if err != nil {
			return nil, 0, err
		}
		c, tr := newClient(f.gwURL, e.seed)
		w := warm(c)
		tr.CloseIdleConnections()
		setups = append(setups, (launch + w).Seconds())
		if r == 8 {
			return f, median(setups), nil
		}
		f.stop()
	}
}

// setServiceLayers derives the fleet's per-layer figures from the
// merged span documents and the /metrics counters around the window.
func setServiceLayers(rep *report, spans *spanLog, before, after fleetCounters) {
	rep.set("client.attempt_ms_p50", quantile(spans.durations("exchange"), 0.5))
	var gw []float64
	spans.mu.Lock()
	for _, d := range spans.docs {
		var x, req *schema.Span
		for i := range d.Spans {
			s := &d.Spans[i]
			switch s.Name {
			case "exchange":
				x = s
			case "request":
				if req == nil || s.StartUS > req.StartUS {
					req = s
				}
			}
		}
		if x != nil && req != nil {
			gw = append(gw, float64(x.DurUS-req.DurUS)/1e3)
		}
	}
	spans.mu.Unlock()
	rep.set("gateway.self_ms_p50", quantile(gw, 0.5))
	rep.set("gateway.self_ms_p99", quantile(gw, 0.99))
	rep.set("gateway.failovers", after.failovers-before.failovers)
	rep.set("gateway.idempotency_entries", after.gatewayIdem)
	qw := spans.durations("queue-wait")
	rep.set("service.queue_wait_ms_p50", quantile(qw, 0.5))
	rep.set("service.queue_wait_ms_p99", quantile(qw, 0.99))
	cm := spans.durations("compile")
	rep.set("service.compile_ms_p50", quantile(cm, 0.5))
	rep.set("service.compile_ms_p99", quantile(cm, 0.99))
	hits, misses := after.imageHits-before.imageHits, after.imageMisses-before.imageMisses
	rep.set("service.image_cache_hit_ratio", ratio(hits, hits+misses))
	ex := spans.durations("execute")
	rep.set("service.execute_ms_p50", quantile(ex, 0.5))
	rep.set("service.execute_ms_p99", quantile(ex, 0.99))
	rep.set("service.request_self_ms_p50", quantile(spans.selfTimes("request"), 0.5))
	rep.set("service.idempotency_entries", after.serviceIdem)
}
