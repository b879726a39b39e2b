package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. BENCHMARK.json
// lists the same names and units; the self-test holds the two equal.
type metricDef struct{ name, unit string }

// endToEnd is what an untraced run reports, on every workload. "op" is
// the workload's unit of work: one program execution on engine-mix,
// one POST /v1/run on fleet-run, one POST /v1/batch on fleet-batch.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_mips", "MIPS"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer is what a traced run reports. A layer the workload does not
// run (the fleet tiers on engine-mix, the store on fleet-run) reads 0.
var perLayer = []metricDef{
	// Compile: the core.Build steps, called one by one.
	{"cc.compile_ms", "ms"},
	{"harden.apply_ms", "ms"},
	{"asm.assemble_ms", "ms"},
	// Kernel.
	{"kernel.spawn_ms", "ms"},
	// Engines, each selected through core.Engine.Options.
	{"engine.blocks_mips", "MIPS"},
	{"engine.fast_mips", "MIPS"},
	{"engine.interp_mips", "MIPS"},
	{"engine.observed_mips", "MIPS"},
	// Components, over seeded streams sized to the working set.
	{"isa.decode_ns", "ns"},
	{"mmu.translate_hit_ns", "ns"},
	{"mmu.translate_walk_ns", "ns"},
	{"cache.access_ns", "ns"},
	{"mem.read_uint_ns", "ns"},
	// Modelled design: exact sums over the workload's distinct programs.
	{"sim.instret", "count"},
	{"sim.cycles", "count"},
	{"sim.roloads", "count"},
	{"mmu.dtlb_miss_ratio", "ratio"},
	{"cache.dcache_miss_ratio", "ratio"},
	// Client and generator.
	{"loadgen.lateness_ms_p99", "ms"},
	{"client.attempt_ms_p50", "ms"},
	{"client.retries", "count"},
	// Gateway (derived: it emits no spans of its own).
	{"gateway.self_ms_p50", "ms"},
	{"gateway.self_ms_p99", "ms"},
	{"gateway.failovers", "count"},
	{"gateway.idempotency_entries", "count"},
	// Service.
	{"service.queue_wait_ms_p50", "ms"},
	{"service.queue_wait_ms_p99", "ms"},
	{"service.compile_ms_p50", "ms"},
	{"service.compile_ms_p99", "ms"},
	{"service.image_cache_hit_ratio", "ratio"},
	{"service.execute_ms_p50", "ms"},
	{"service.execute_ms_p99", "ms"},
	{"service.request_self_ms_p50", "ms"},
	{"service.idempotency_entries", "count"},
	// Store and replication.
	{"service.batch_run_ms_p50", "ms"},
	{"service.batch_self_ms_p50", "ms"},
	{"store.puts_per_batch", "count"},
	{"store.log_bytes_per_run", "bytes"},
	{"replication.pushes_per_batch", "count"},
	{"replication.push_failures", "count"},
	{"batch.replay_ratio", "ratio"},
	// The whole run: failed over attempted operations, and the traced
	// run's own end-to-end figures (minus the untraced run's figures,
	// they are the tracing overhead).
	{"error_ratio", "ratio"},
	{"trace.op_p50_ms", "ms"},
	{"trace.ops_per_s", "1/s"},
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	return quantile(ys, 0.5)
}

// stretch is the length of the pieces a fleet's measured window is cut
// into. Contention from other tenants of the host only ever slows the
// fleet, and on the reference host it comes and goes in stretches of
// seconds; each fleet figure is taken over every piece, and the
// quartile on the good side of those (the lower quartile of a latency,
// the upper of a speed) is reported.
const stretch = 2 * time.Second

// stretches groups n samples by the stretch-long piece of a window of
// the given length that their offset at(i) falls in; a window shorter
// than a stretch is one piece. Empty pieces are left out.
func stretches(window time.Duration, n int, at func(i int) time.Duration) [][]int {
	k := max(int(window/stretch), 1)
	groups := make([][]int, k)
	for i := 0; i < n; i++ {
		g := int(at(i) * time.Duration(k) / window)
		if g >= 0 && g < k {
			groups[g] = append(groups[g], i)
		}
	}
	var out [][]int
	for _, g := range groups {
		if len(g) > 0 {
			out = append(out, g)
		}
	}
	return out
}

// goodQuartile is the lower quartile of xs when lower is better, else
// the upper quartile.
func goodQuartile(xs []float64, lower bool) float64 {
	ys := append([]float64(nil), xs...)
	if lower {
		return quantile(ys, 0.25)
	}
	return quantile(ys, 0.75)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// fingerprint identifies the host a result was measured on, plus the
// source revision measured. Results compare only within one host.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
}

func (f fingerprint) sameHost(g fingerprint) bool {
	return f.CPU == g.CPU && f.NProc == g.NProc && f.GOMAXPROCS == g.GOMAXPROCS && f.GoVersion == g.GoVersion
}

func (f fingerprint) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s revision=%s",
		f.CPU, f.NProc, f.GOMAXPROCS, f.GoVersion, f.Revision)
}

func hostFingerprint() fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   revision(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// revision is the git commit of the working directory, or, in an
// export without git metadata, a digest of its Go sources and module
// files (so two exports of one commit still stamp the same revision).
func revision() string {
	if rev := gitHead(); rev != "" {
		return rev
	}
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error { //nolint:errcheck // best effort: an unreadable file only weakens the stamp
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod")) {
			if data, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", path, len(data))
				h.Write(data)
			}
		}
		return nil
	})
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}

// gitHead resolves .git/HEAD in the working directory by reading the
// files git keeps there, without running git (which would search the
// parent directories).
func gitHead() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return ""
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return shortRev(ref)
	}
	if data, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return shortRev(strings.TrimSpace(string(data)))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return shortRev(sha)
		}
	}
	return ""
}

func shortRev(sha string) string {
	if len(sha) > 12 {
		return sha[:12]
	}
	return sha
}
