package main

// The benchmark's self-test: short runs of every workload emit every
// metric BENCHMARK.json names, with its unit; a wrong expected answer
// or a wrongly pinned attack outcome counts as a failure; two seeds
// give different inputs but the same metrics; and every seed asks the
// fleets for the same mix of work. Run it from this
// directory with `go test .` (about two minutes; it builds roload-serve
// and roload-gateway first).

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"roload/internal/kernel"
)

// binDir holds the fleet binaries TestMain builds.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-selftest")
	if err != nil {
		panic(err)
	}
	binDir = dir
	build := exec.Command("go", "build", "-o", dir+"/", "./cmd/roload-serve", "./cmd/roload-gateway")
	build.Dir = ".."
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		os.RemoveAll(dir)
		panic("building the fleet binaries: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// shortRun runs one workload for half a second in a fresh directory.
func shortRun(t *testing.T, workload string, seed int64, trace bool, tweak func(any)) *result {
	t.Helper()
	e := &env{seed: seed, seconds: 0.5, trace: trace, binDir: binDir, workDir: t.TempDir(), tweak: tweak}
	res, err := runOne(context.Background(), workload, workloads[workload], e)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestEveryMetricEmitted runs each workload briefly, untraced and
// traced, and checks the printed metrics against BENCHMARK.json: the
// same names, each with its declared unit, and no failed operation.
func TestEveryMetricEmitted(t *testing.T) {
	d := readDeclared(t)
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range d.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		layer[m.Name] = m.Unit
	}
	for _, w := range d.Workloads {
		if workloads[w.Name] == nil {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark lacks", w.Name)
		}
		for _, trace := range []bool{false, true} {
			want := e2e
			if trace {
				want = layer
			}
			res := shortRun(t, w.Name, 1, trace, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): correct %v, %d of %d failed", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (trace %v): metrics %v, BENCHMARK.json declares %v", w.Name, trace, got, want)
			}
		}
	}
}

// TestWrongAnswersFail corrupts one expected answer of every workload,
// and one pinned attack outcome, and checks that each shows up as
// failed operations.
func TestWrongAnswersFail(t *testing.T) {
	cases := []struct {
		name     string
		workload string
		tweak    func(any)
	}{
		{"wrong expected output", "engine-mix", func(s any) {
			st := s.(*mixState)
			st.progs[0].ref.Stdout = append([]byte("x"), st.progs[0].ref.Stdout...)
		}},
		{"wrongly pinned attack", "engine-mix", func(s any) {
			st := s.(*mixState)
			st.attacks[0].want = "HIJACKED"
		}},
		{"wrong expected run body", "fleet-run", func(s any) {
			for _, body := range s.([][]byte) {
				body[len(body)/2] ^= 1
			}
		}},
		{"wrong expected batch body", "fleet-batch", func(s any) {
			refs := s.([][2]string)
			for i := range refs {
				refs[i][0] += " "
				refs[i][1] += " "
			}
		}},
	}
	for _, c := range cases {
		res := shortRun(t, c.workload, 1, false, c.tweak)
		if res.Failed == 0 || res.Correct {
			t.Errorf("%s: %d of %d operations failed, want some", c.name, res.Failed, res.Attempted)
		}
	}
}

// TestSeedsChangeInputsNotMetrics checks that two seeds generate
// different mixes and schedules, and report the same metric names.
func TestSeedsChangeInputsNotMetrics(t *testing.T) {
	ctx := context.Background()
	a, _, err := setupMix(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := setupMix(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	var na, nb []string
	for i := range a.progs {
		na, nb = append(na, a.progs[i].name), append(nb, b.progs[i].name)
	}
	if reflect.DeepEqual(na, nb) {
		t.Errorf("seeds 1 and 2 built the same mix %v", na)
	}
	names := func(res *result) []string {
		var out []string
		for n := range res.Metrics {
			out = append(out, n)
		}
		sort.Strings(out)
		return out
	}
	for _, w := range []string{"engine-mix", "fleet-run"} {
		r1, r2 := shortRun(t, w, 1, false, nil), shortRun(t, w, 2, false, nil)
		if !reflect.DeepEqual(names(r1), names(r2)) {
			t.Errorf("%s: seeds 1 and 2 report %v and %v", w, names(r1), names(r2))
		}
	}
}

// TestSeedsShareTheMixOfWork checks that the fleets' inputs are drawn
// in fixed proportions: under every seed the open loop asks for each
// spec equally often (to within one) and for one cold source in every
// coldEvery requests, and every batch has the same shape. Only the
// order differs between seeds.
func TestSeedsShareTheMixOfWork(t *testing.T) {
	const nSpecs = 66
	var orders [][]int
	for _, seed := range []int64{1, 2} {
		_, arrivals := schedule(rand.New(rand.NewSource(seed)), 25*time.Second, nSpecs)
		count := make([]int, nSpecs)
		cold := 0
		var order []int
		for _, a := range arrivals {
			count[a.spec]++
			if a.cold {
				cold++
			}
			order = append(order, a.spec)
		}
		n := len(arrivals)
		for spec, c := range count {
			if c < n/nSpecs || c > (n+nSpecs-1)/nSpecs {
				t.Errorf("seed %d: spec %d asked for %d times in %d requests", seed, spec, c, n)
			}
		}
		if cold < n/coldEvery || cold > (n+coldEvery-1)/coldEvery {
			t.Errorf("seed %d: %d cold requests in %d, want one in %d", seed, cold, n, coldEvery)
		}
		orders = append(orders, order)
	}
	if reflect.DeepEqual(orders[0], orders[1]) {
		t.Error("seeds 1 and 2 scheduled the specs in the same order")
	}

	s := &hotSpec{prog: &program{src: "x", ref: kernel.RunResult{Instret: 1000}}, harden: "none"}
	refs := [2]string{"plain", "checkpointing"}
	rng := rand.New(rand.NewSource(1))
	for b := 0; b < 20; b++ {
		req, want := batchFor(rng, s, refs)
		var engines []string
		budgets, checkpoints := 0, 0
		for j, run := range req.Runs {
			engines = append(engines, run.Engine)
			if run.MaxSteps > 0 {
				budgets++
			}
			if (run.CheckpointEvery > 0) != (want[j] == refs[1]) {
				t.Errorf("batch %d run %d: checkpoint every %d, expects the %q answer", b, j, run.CheckpointEvery, want[j])
			}
			if run.CheckpointEvery > 0 {
				checkpoints++
			}
		}
		sort.Strings(engines)
		wantEngines := append([]string(nil), batchEngines...)
		sort.Strings(wantEngines)
		if !reflect.DeepEqual(engines, wantEngines) || budgets != 2 || checkpoints != 1 {
			t.Errorf("batch %d: engines %v, %d budgets, %d checkpointing; want %v, 2, 1", b, engines, budgets, checkpoints, wantEngines)
		}
	}
}
