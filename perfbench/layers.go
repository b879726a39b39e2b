package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"roload/internal/asm"
	"roload/internal/cache"
	"roload/internal/cc"
	"roload/internal/cc/harden"
	"roload/internal/core"
	"roload/internal/isa"
	"roload/internal/kernel"
	"roload/internal/mem"
	"roload/internal/mmu"
	"roload/internal/obs"
	"roload/internal/telemetry"
)

// program is one distinct (source, scheme) pair of a workload, with the
// in-process reference result every answer about it is checked against.
type program struct {
	name string
	src  string
	h    core.Hardening
	img  *asm.Image
	ref  kernel.RunResult
}

// buildProgram compiles src under h; reference runs it once on the
// blocks engine and keeps the result.
func buildProgram(name, src string, h core.Hardening) (*program, error) {
	img, _, err := core.Build(src, h)
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", name, err)
	}
	return &program{name: name, src: src, h: h, img: img}, nil
}

func (p *program) reference(ctx context.Context) error {
	res, _, err := core.RunWith(ctx, p.img, core.SysFull, core.EngineBlocks.Options(core.RunOptions{}))
	if err != nil {
		return fmt.Errorf("reference run of %s: %w", p.name, err)
	}
	p.ref = res
	return nil
}

// sameRun reports whether two runs agree on every checked observable.
func sameRun(a, b kernel.RunResult) bool {
	return bytes.Equal(a.Stdout, b.Stdout) && a.Exited == b.Exited && a.Code == b.Code &&
		a.Signal == b.Signal && a.Instret == b.Instret && a.Cycles == b.Cycles
}

// engineRun spawns img on the fully modified system with engine eng
// (observed = the blocks engine asked for, with an obs.Counters probe
// attached) and returns the spawn time, the run time and the result.
// Under a non-nil parent span it records a "spawn" and a "run" span.
func engineRun(ctx context.Context, img *asm.Image, eng core.Engine, observed bool, parent *telemetry.Span) (time.Duration, time.Duration, kernel.RunResult, error) {
	cfg := core.SysFull.Config()
	opts := eng.Options(core.RunOptions{})
	cfg.CPU.NoFastPath, cfg.CPU.NoBlocks = opts.NoFastPath, opts.NoBlocks
	s := parent.Child("spawn")
	t0 := time.Now()
	machine := kernel.NewSystem(cfg)
	p, err := machine.Spawn(img)
	spawn := time.Since(t0)
	s.End()
	if err != nil {
		return spawn, 0, kernel.RunResult{}, err
	}
	if observed {
		machine.SetProbe(&obs.Counters{})
	}
	s = parent.Child("run")
	t1 := time.Now()
	res, err := machine.RunContext(ctx, p)
	run := time.Since(t1)
	s.End()
	return spawn, run, res, err
}

// measureLayers reports the in-process layers over a workload's
// distinct programs: the split build steps, spawn, the four engine
// configurations, the components, and the modelled-design sums. Every
// engine must reproduce each program's reference result bit for bit.
func measureLayers(ctx context.Context, progs []*program, seed int64, rep *report, spans *spanLog) error {
	tr := telemetry.NewTrace(telemetry.NewRunID(), "b")
	root := tr.Start("layers", "")
	defer func() { root.End(); spans.add(tr.Doc()) }()

	// Compile: cc, harden, asm, called one by one; sums over the
	// programs, median of three repetitions.
	var ccMS, hMS, asmMS []float64
	for r := 0; r < 3; r++ {
		var tc, th, ta time.Duration
		for _, p := range progs {
			b := root.Child("build")
			s := b.Child("cc.compile")
			t0 := time.Now()
			unit, err := cc.Compile(p.src)
			tc += time.Since(t0)
			s.End()
			if err != nil {
				return fmt.Errorf("compiling %s: %w", p.name, err)
			}
			s = b.Child("harden.apply")
			t0 = time.Now()
			err = harden.Apply(unit, p.h.Passes()...)
			th += time.Since(t0)
			s.End()
			if err != nil {
				return fmt.Errorf("hardening %s: %w", p.name, err)
			}
			s = b.Child("asm.assemble")
			t0 = time.Now()
			img, err := asm.Assemble(unit.Assembly(), asm.DefaultOptions())
			ta += time.Since(t0)
			s.End()
			b.End()
			if err != nil {
				return fmt.Errorf("assembling %s: %w", p.name, err)
			}
			rep.check(kernel.ImageDigest(img) == kernel.ImageDigest(p.img), "%s: split build gave a different image", p.name)
		}
		ccMS, hMS, asmMS = append(ccMS, ms(tc)), append(hMS, ms(th)), append(asmMS, ms(ta))
	}
	rep.set("cc.compile_ms", median(ccMS))
	rep.set("harden.apply_ms", median(hMS))
	rep.set("asm.assemble_ms", median(asmMS))

	// Engines. Spawn is timed on every one of these runs.
	var spawnMS []float64
	engines := []struct {
		metric   string
		eng      core.Engine
		observed bool
	}{
		{"engine.blocks_mips", core.EngineBlocks, false},
		{"engine.fast_mips", core.EngineFast, false},
		{"engine.interp_mips", core.EngineInterp, false},
		{"engine.observed_mips", core.EngineBlocks, true},
	}
	for _, e := range engines {
		var instret uint64
		var busy time.Duration
		es := root.Child(e.metric)
		for _, p := range progs {
			spawn, run, res, err := engineRun(ctx, p.img, e.eng, e.observed, es)
			if err != nil {
				return fmt.Errorf("%s on %s: %w", p.name, e.metric, err)
			}
			spawnMS = append(spawnMS, ms(spawn))
			rep.check(sameRun(res, p.ref), "%s: %s result differs from the reference", p.name, e.metric)
			instret += res.Instret
			busy += run
		}
		es.End()
		rep.set(e.metric, float64(instret)/1e6/busy.Seconds())
	}
	rep.set("kernel.spawn_ms", median(spawnMS))

	cs := root.Child("components")
	err := measureComponents(progs, seed, rep)
	cs.End()
	if err != nil {
		return err
	}

	// Modelled design: exact sums over the distinct programs.
	var instret, cycles, roloads, tlbHit, tlbMiss, dcHit, dcMiss uint64
	for _, p := range progs {
		r := p.ref
		instret += r.Instret
		cycles += r.Cycles
		roloads += r.CPUStats.ROLoads
		tlbHit += r.DMMU.TLBHits
		tlbMiss += r.DMMU.TLBMisses
		dcHit += r.DC.Hits
		dcMiss += r.DC.Misses
	}
	rep.set("sim.instret", float64(instret))
	rep.set("sim.cycles", float64(cycles))
	rep.set("sim.roloads", float64(roloads))
	rep.set("mmu.dtlb_miss_ratio", ratio(float64(tlbMiss), float64(tlbHit+tlbMiss)))
	rep.set("cache.dcache_miss_ratio", ratio(float64(dcMiss), float64(dcHit+dcMiss)))
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// componentSink keeps the timed component calls observable, so the
// compiler cannot drop them.
var componentSink uint64

// measureComponents times isa.Decode, mmu.Translate (hit and walk),
// cache.Access and mem.Physical.ReadUint over seeded streams: decode
// over instruction words sampled from the programs' code, the others
// over addresses spread across the programs' median working set. Each
// figure is the median over five repetitions, in ns per call.
func measureComponents(progs []*program, seed int64, rep *report) error {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var peaks []float64
	var words []uint32
	for _, p := range progs {
		peaks = append(peaks, float64(p.ref.MemPeakKiB))
		for _, sec := range p.img.Sections {
			if sec.Perm&asm.PermExec == 0 {
				continue
			}
			for i := 0; i+4 <= len(sec.Data); i += 4 {
				words = append(words, uint32(sec.Data[i])|uint32(sec.Data[i+1])<<8|uint32(sec.Data[i+2])<<16|uint32(sec.Data[i+3])<<24)
			}
		}
	}
	pages := int(median(peaks)) / 4
	pages = min(max(pages, 64), 8192)

	const streamLen = 1 << 14
	const reps = 5
	const rounds = 64 // each repetition walks the stream this many times
	nsPerOp := func(run func()) float64 {
		var per []float64
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			run()
			per = append(per, float64(time.Since(t0).Nanoseconds())/float64(streamLen*rounds))
		}
		return median(per)
	}

	stream := make([]uint32, streamLen)
	for i := range stream {
		stream[i] = words[rng.Intn(len(words))]
	}
	rep.set("isa.decode_ns", nsPerOp(func() {
		for r := 0; r < rounds; r++ {
			for _, w := range stream {
				componentSink += uint64(isa.Decode(w).Op)
			}
		}
	}))

	// MMU: a page table over the working set. The hit stream stays
	// within as many pages as the TLB holds; the walk stream spans the
	// whole working set and flushes before every lookup.
	const vaBase, paBase = 0x4000_0000, 0x0800_0000
	phys := mem.NewPhysical(256 << 20)
	mapper, err := mmu.NewMapper(phys, &bumpFrames{next: 0x10_0000})
	if err != nil {
		return fmt.Errorf("component mapper: %w", err)
	}
	for i := 0; i < pages; i++ {
		if err := mapper.Map(vaBase+uint64(i)*mem.PageSize, paBase+uint64(i)*mem.PageSize, mmu.PTERead|mmu.PTEWrite, 0); err != nil {
			return fmt.Errorf("component mapping: %w", err)
		}
	}
	cfg := mmu.DefaultConfig()
	m := mmu.New(phys, cfg)
	m.SetRoot(mapper.Root())
	addrs := func(span int) []uint64 {
		out := make([]uint64, streamLen)
		for i := range out {
			out[i] = vaBase + uint64(rng.Intn(span))*mem.PageSize + uint64(rng.Intn(mem.PageSize/8))*8
		}
		return out
	}
	hitVA := addrs(min(pages, cfg.TLBEntries))
	for _, va := range hitVA {
		m.Translate(va, mmu.Read, 0)
	}
	rep.set("mmu.translate_hit_ns", nsPerOp(func() {
		for r := 0; r < rounds; r++ {
			for _, va := range hitVA {
				pa, _, _ := m.Translate(va, mmu.Read, 0)
				componentSink += pa
			}
		}
	}))
	walkVA := addrs(pages)
	rep.set("mmu.translate_walk_ns", nsPerOp(func() {
		for r := 0; r < rounds/8; r++ {
			for _, va := range walkVA {
				m.Flush()
				pa, _, _ := m.Translate(va, mmu.Read, 0)
				componentSink += pa
			}
		}
	})*8) // the walk stream runs an eighth of the rounds

	// Cache and physical memory: addresses across the working set.
	wsBytes := pages * mem.PageSize
	pas := make([]uint64, streamLen)
	for i := range pas {
		pas[i] = paBase + uint64(rng.Intn(wsBytes/8))*8
	}
	c := cache.New(cache.DefaultL1())
	rep.set("cache.access_ns", nsPerOp(func() {
		for r := 0; r < rounds; r++ {
			for _, pa := range pas {
				if c.Access(pa) {
					componentSink++
				}
			}
		}
	}))
	for i := 0; i < pages; i++ {
		if err := phys.WriteUint(paBase+uint64(i)*mem.PageSize, uint64(i), 8); err != nil {
			return fmt.Errorf("component memory: %w", err)
		}
	}
	rep.set("mem.read_uint_ns", nsPerOp(func() {
		for r := 0; r < rounds; r++ {
			for _, pa := range pas {
				v, _ := phys.ReadUint(pa, 8)
				componentSink += v
			}
		}
	}))
	return nil
}

// bumpFrames hands out page-table frames from a fixed region below the
// mapped working set.
type bumpFrames struct{ next uint64 }

func (b *bumpFrames) AllocFrame() (uint64, error) {
	a := b.next
	b.next += mem.PageSize
	return a, nil
}
