package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"roload/internal/attack"
	"roload/internal/core"
	"roload/internal/spec"
	"roload/internal/telemetry"
)

// mixScales sizes each SPEC-like program so that every one retires
// about three million instructions: no program dominates the mix (at
// reference scale 473.astar alone is over half of it). 464.h264ref
// cannot go below scale 1, about ten million instructions.
var mixScales = map[string]int{
	"401.bzip2": 10000, "403.gcc": 900, "429.mcf": 68, "445.gobmk": 240,
	"456.hmmer": 50, "458.sjeng": 3, "462.libquantum": 10, "464.h264ref": 1,
	"471.omnetpp": 5500, "473.astar": 10, "483.xalancbmk": 56,
}

// jitterScale moves a scale by up to ±8% under the seed. Scales below
// 20 step too coarsely (one step can double the work) and stay fixed.
func jitterScale(rng *rand.Rand, scale int) int {
	if scale < 20 {
		return scale
	}
	return scale + int(float64(scale)*0.16*(rng.Float64()-0.5))
}

// paperScheme is the scheme each program runs under in the paper: the
// virtual-call protection for the C++ trio, type-based indirect-call
// protection for the C programs.
func paperScheme(w spec.Workload) core.Hardening {
	if w.Lang == "C++" {
		return core.HardenVCall
	}
	return core.HardenICall
}

//go:embed data/attack_matrix.json
var attackMatrixJSON []byte

// pinnedOutcome is one expected entry of the attack matrix.
type pinnedOutcome struct {
	Scenario string `json:"scenario"`
	Scheme   string `json:"scheme"`
	Outcome  string `json:"outcome"`
}

// attackCase is one (scenario, scheme) mount and the outcome pinned
// for it.
type attackCase struct {
	sc   *attack.Scenario
	h    core.Hardening
	want string
}

// mixState is what engine-mix sets up before its window: the images
// with their reference results, and the pinned attack cases.
type mixState struct {
	progs   []*program
	attacks []attackCase
}

func loadAttackCases(pinned []pinnedOutcome) ([]attackCase, error) {
	byName := map[string]*attack.Scenario{}
	for _, sc := range attack.AllScenarios() {
		byName[sc.Name] = sc
	}
	schemes := map[string]core.Hardening{"vcall": core.HardenVCall, "icall": core.HardenICall}
	var out []attackCase
	for _, p := range pinned {
		sc, h := byName[p.Scenario], schemes[p.Scheme]
		if sc == nil || h == core.HardenNone {
			return nil, fmt.Errorf("pinned attack %s/%s names no known scenario and scheme", p.Scenario, p.Scheme)
		}
		if sc.Covers(h) && p.Outcome == attack.Hijacked.String() {
			return nil, fmt.Errorf("pinned attack %s/%s expects a hijack the scheme covers", p.Scenario, p.Scheme)
		}
		out = append(out, attackCase{sc: sc, h: h, want: p.Outcome})
	}
	return out, nil
}

// setupMix builds every image of the seeded mix 25 times, reporting
// the median build time, then records each image's reference result.
func setupMix(ctx context.Context, seed int64) (*mixState, float64, error) {
	rng := rand.New(rand.NewSource(seed))
	type entry struct {
		name, src string
		h         core.Hardening
	}
	var entries []entry
	for _, w := range spec.Workloads() {
		scale := jitterScale(rng, mixScales[w.Name])
		src := w.SourceFor(scale)
		for _, h := range []core.Hardening{core.HardenNone, paperScheme(w)} {
			entries = append(entries, entry{fmt.Sprintf("%s@%d/%v", w.Name, scale, h), src, h})
		}
	}
	var builds []float64
	var progs []*program
	for r := 0; r < 25; r++ {
		t0 := time.Now()
		var round []*program
		for _, e := range entries {
			p, err := buildProgram(e.name, e.src, e.h)
			if err != nil {
				return nil, 0, err
			}
			round = append(round, p)
		}
		builds = append(builds, time.Since(t0).Seconds())
		progs = round
	}
	for _, p := range progs {
		if err := p.reference(ctx); err != nil {
			return nil, 0, err
		}
	}
	var pinned []pinnedOutcome
	if err := json.Unmarshal(attackMatrixJSON, &pinned); err != nil {
		return nil, 0, fmt.Errorf("pinned attack matrix: %w", err)
	}
	cases, err := loadAttackCases(pinned)
	if err != nil {
		return nil, 0, err
	}
	return &mixState{progs: progs, attacks: cases}, median(builds), nil
}

// runEngineMix is the in-process workload: one goroutine, closed loop,
// passes over the 22 images of the mix in a seeded order (each program
// unhardened and under its paper scheme, blocks engine, fully modified
// system), each pass followed by the attack matrix under vcall and
// icall. Every execution must reproduce its reference result and every
// attack its pinned outcome.
func runEngineMix(ctx context.Context, e *env) (*report, error) {
	rep := newReport()
	st, setup, err := setupMix(ctx, e.seed)
	if err != nil {
		return nil, err
	}
	// Hardening preserves semantics: each program's two images agree.
	for i := 0; i+1 < len(st.progs); i += 2 {
		a, b := st.progs[i].ref, st.progs[i+1].ref
		rep.check(string(a.Stdout) == string(b.Stdout) && a.Exited == b.Exited && a.Code == b.Code,
			"%s and %s disagree on output", st.progs[i].name, st.progs[i+1].name)
	}
	if e.tweak != nil {
		e.tweak(st)
	}

	// Untraced, the trace stays nil and every span call is inert.
	spans := &spanLog{}
	var tr *telemetry.Trace
	if e.trace {
		tr = telemetry.NewTrace(telemetry.NewRunID(), "b")
	}
	root := tr.Start("engine-mix", "")
	rng := rand.New(rand.NewSource(e.seed + 1))
	// Each image and each attack case is timed at its fastest over the
	// window's passes. Contention from other tenants of the host only
	// ever slows an execution, and on the reference host it comes in
	// stretches of seconds that halve the simulator's speed; the fastest
	// of a dozen executions is the one such a stretch spared. The tail
	// (22 fastest times would leave two beyond a p90) is taken per pass
	// instead, as the fleets take theirs per stretch: the lower quartile
	// of the passes' p90s.
	best := make([]time.Duration, len(st.progs))
	bestAttack := make([]time.Duration, len(st.attacks))
	var p90s []float64
	var samples [][4]float64 // pass, image, ms, instructions
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < e.window(); pass++ {
		ps := root.Child("pass")
		var lat []float64
		for _, i := range rng.Perm(len(st.progs)) {
			p := st.progs[i]
			spawn, run, res, err := engineRun(ctx, p.img, core.EngineBlocks, false, ps)
			run += spawn
			rep.check(err == nil && sameRun(res, p.ref), "%s: result differs from the reference (err %v)", p.name, err)
			if pass == 0 || run < best[i] {
				best[i] = run
			}
			lat = append(lat, ms(run))
			samples = append(samples, [4]float64{float64(pass), float64(i), ms(run), float64(res.Instret)})
		}
		for k, a := range st.attacks {
			s := ps.Child("attack")
			t0 := time.Now()
			r, err := a.sc.MountContext(ctx, a.h)
			d := time.Since(t0)
			s.End()
			if pass == 0 || d < bestAttack[k] {
				bestAttack[k] = d
			}
			got := ""
			if err == nil {
				got = r.Outcome.String()
			}
			// A hijack the scheme covers fails whatever the pin says.
			covered := err == nil && r.Outcome == attack.Hijacked && a.sc.Covers(a.h)
			rep.check(err == nil && got == a.want && !covered, "attack %s under %v: got %q, pinned %q (err %v)", a.sc.Name, a.h, got, a.want, err)
		}
		ps.End()
		p90s = append(p90s, quantile(lat, 0.9))
	}
	root.End()
	if err := writeJSON(filepath.Join(e.workDir, "samples.json"), samples); err != nil {
		return nil, err
	}

	var fastest []float64
	var instret uint64
	var exec, mounts time.Duration
	for i, p := range st.progs {
		fastest = append(fastest, ms(best[i]))
		instret += p.ref.Instret
		exec += best[i]
	}
	for _, d := range bestAttack {
		mounts += d
	}
	opsPerS := float64(len(best)+len(bestAttack)) / (exec + mounts).Seconds()
	p50 := quantile(fastest, 0.5)

	if !e.trace {
		rep.set("setup_s", setup)
		rep.set("sim_mips", float64(instret)/1e6/exec.Seconds())
		rep.set("op_p50_ms", p50)
		rep.set("op_tail_ms", goodQuartile(p90s, true))
		rep.set("ops_per_s", opsPerS)
		rep.set("peak_rss_mb", selfPeakRSSMB())
		return rep, nil
	}
	spans.add(tr.Doc())
	rep.set("trace.op_p50_ms", p50)
	rep.set("trace.ops_per_s", opsPerS)
	if err := measureLayers(ctx, st.progs, e.seed, rep, spans); err != nil {
		return nil, err
	}
	return rep, spans.write(e.workDir)
}
