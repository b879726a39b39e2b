// Command perfbench is the repository's layered benchmark. One run
// measures one workload for a fixed wall-clock window and prints, as
// its last stdout line, a JSON object with the fields correct,
// attempted, failed and metrics.
//
// Usage (from the repository root, through the wrapper that builds the
// binaries first):
//
//	bash perfbench/run.sh --workload engine-mix --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh compare A/result.json B/result.json ...
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// run records spans around every layer call and reports the per-layer
// set instead. Every result is also written, stamped with the host
// fingerprint and the seed, under the output directory; compare refuses
// to compare results whose host fingerprints differ.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workloads maps a --workload name to its driver.
var workloads = map[string]func(ctx context.Context, env *env) (*report, error){
	"engine-mix":  runEngineMix,
	"fleet-run":   runFleetRun,
	"fleet-batch": runFleetBatch,
}

// env is what every workload driver receives: its seed, its window, the
// trace switch, and where to find the binaries and put its files.
type env struct {
	seed    int64
	seconds float64
	trace   bool
	binDir  string
	workDir string
	// tweak, when non-nil, may corrupt the state a workload built at
	// set-up before the measured window starts; the self-test uses it
	// to prove that a wrong answer counts as a failure.
	tweak func(state any)
}

func (e *env) window() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

// result is the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// stamped is the record written next to the printed result.
type stamped struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Seconds     float64     `json:"seconds"`
	Trace       bool        `json:"trace"`
	Result      result      `json:"result"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "workload to run: engine-mix, fleet-run or fleet-batch")
	seed := flag.Int64("seed", 1, "workload seed: every generated input derives from it")
	seconds := flag.Float64("seconds", 20, "measured window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()

	drive, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	// run.sh builds the binaries into outDir/bin.
	const outDir = ".bench_build/perfbench"
	e := &env{seed: *seed, seconds: *seconds, trace: *trace == 1, binDir: filepath.Join(outDir, "bin"),
		workDir: filepath.Join(outDir, fmt.Sprintf("%s-%d-%d", *workload, *seed, *trace))}
	res, err := runOne(context.Background(), *workload, drive, e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fp := hostFingerprint()
	fmt.Printf("# host %s\n", fp)
	rec := stamped{Fingerprint: fp, Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: e.trace, Result: *res}
	if err := writeJSON(filepath.Join(e.workDir, "result.json"), rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runOne drives one workload in a fresh work directory and shapes its
// report into the printed result: the end-to-end set untraced, the
// per-layer set traced, each metric with its unit.
func runOne(ctx context.Context, name string, drive func(context.Context, *env) (*report, error), e *env) (*result, error) {
	if err := os.RemoveAll(e.workDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.workDir, 0o755); err != nil {
		return nil, err
	}
	rep, err := drive(ctx, e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if rep.attempted < 1 {
		return nil, fmt.Errorf("%s: no operation attempted", name)
	}
	for _, msg := range rep.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", msg)
	}
	set := endToEnd
	if e.trace {
		set = perLayer
		rep.set("error_ratio", float64(rep.failed)/float64(rep.attempted))
	}
	res := &result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metric, len(set)),
	}
	for _, m := range set {
		v, ok := rep.values[m.name]
		if !ok && !e.trace {
			return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", name, m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return res, nil
}

// report is what a workload driver hands back: its operation tally and
// the metric values it measured, by name. A per-layer metric the
// workload has no such layer for stays absent and is reported as 0.
type report struct {
	attempted int64
	failed    int64
	failures  []string
	values    map[string]float64
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// check counts one checked operation; a false ok counts it as failed,
// and the first few messages are kept for stderr.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compare reads stamped results (result.json files written by earlier
// runs, given as arguments) and prints, per workload, trace mode and
// metric, the median of each revision's values. It refuses when the
// results were made on hosts with different fingerprints.
func compare(w *os.File, paths []string) error {
	if len(paths) < 2 {
		return errors.New("compare needs at least two result files")
	}
	type cell struct{ workload, metric, rev string }
	vals := map[cell][]float64{}
	var first *fingerprint
	var revs []string
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var rec stamped
		if err := json.Unmarshal(data, &rec); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		if first == nil {
			first = &rec.Fingerprint
		} else if !first.sameHost(rec.Fingerprint) {
			return fmt.Errorf("refusing to compare: %s was measured on %s, not %s", p, rec.Fingerprint, *first)
		}
		rev := rec.Fingerprint.Revision
		if !contains(revs, rev) {
			revs = append(revs, rev)
		}
		wl := rec.Workload
		if rec.Trace {
			wl += " (traced)"
		}
		for name, m := range rec.Result.Metrics {
			k := cell{wl, name, rev}
			vals[k] = append(vals[k], m.Value)
		}
	}
	var keys []cell
	for k := range vals {
		if k.rev == revs[0] {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "host %s\n", *first)
	for _, k := range keys {
		fmt.Fprintf(w, "%-24s %-32s", k.workload, k.metric)
		for _, rev := range revs {
			v := vals[cell{k.workload, k.metric, rev}]
			fmt.Fprintf(w, "  %s: median %.6g (n=%d)", rev, median(v), len(v))
		}
		fmt.Fprintln(w)
	}
	return nil
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
