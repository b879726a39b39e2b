package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"roload/internal/cli"
	"roload/internal/client"
	"roload/internal/core"
	"roload/internal/schema"
	"roload/internal/spec"
)

// fleetScales sizes each program on the fleets so that a run retires
// about 5×10^4 instructions (hmmer, sjeng and h264ref cannot go below
// 1–2×10^5), keeping execution short beside the gateway, queueing,
// compile and render. Like the mix, the seed moves the larger scales
// by up to ±8%.
var fleetScales = map[string]int{
	"401.bzip2": 160, "403.gcc": 15, "429.mcf": 1, "445.gobmk": 3,
	"456.hmmer": 1, "458.sjeng": 1, "462.libquantum": 5, "464.h264ref": 0,
	"471.omnetpp": 80, "473.astar": 3, "483.xalancbmk": 1,
}

// batchScales sizes the programs of fleet-batch smaller still, about
// 1–5×10^4 instructions, so that the store and replication work under
// every batch is not buried under execution; the three programs that
// cannot go below 10^5 instructions stay out.
var batchScales = map[string]int{
	"401.bzip2": 40, "403.gcc": 3, "429.mcf": 1, "445.gobmk": 1,
	"462.libquantum": 4, "471.omnetpp": 20, "473.astar": 2, "483.xalancbmk": 1,
}

// fleetSchemes is the hardening mix of fleet traffic, by wire name.
var fleetSchemes = []string{"none", "icall", "vcall", "cfi", "vtint", "retguard"}

// hotSpec is one (program, scale, scheme) the fleet traffic cycles
// through, with its in-process reference.
type hotSpec struct {
	prog   *program
	harden string
	// want is the payload every 2xx answer about this spec must carry:
	// the in-process core result rendered the way the service renders
	// it, re-encoded compactly.
	want []byte
}

// hotSet builds every program scales names under every scheme of
// fleetSchemes, at seeded scales, with their reference results. Every
// seed draws from the same program-and-scheme pairs, so the work a
// request asks for is distributed alike under every seed.
func hotSet(ctx context.Context, rng *rand.Rand, scales map[string]int) ([]*hotSpec, error) {
	var out []*hotSpec
	for _, w := range spec.Workloads() {
		base, ok := scales[w.Name]
		if !ok {
			continue
		}
		for _, name := range fleetSchemes {
			scale := jitterScale(rng, base)
			h, err := cli.ParseHardening(name)
			if err != nil {
				return nil, err
			}
			p, err := buildProgram(fmt.Sprintf("%s@%d/%s", w.Name, scale, name), w.SourceFor(scale), h)
			if err != nil {
				return nil, err
			}
			if err := p.reference(ctx); err != nil {
				return nil, err
			}
			want, err := json.Marshal(expectedResponse(p))
			if err != nil {
				return nil, err
			}
			out = append(out, &hotSpec{prog: p, harden: name, want: want})
		}
	}
	return out, nil
}

// expectedResponse renders a reference result as the service's run
// response: the fields POST /v1/run answers with, from the same
// kernel result.
func expectedResponse(p *program) schema.RunResponse {
	res := p.ref
	snap := res.Snapshot(core.SysFull.String())
	snap.Schema = schema.MetricsV1
	resp := schema.RunResponse{
		Stdout:          string(res.Stdout),
		Exited:          res.Exited,
		ExitCode:        res.Code,
		ROLoadViolation: res.ROLoadViolation,
		Metrics:         &snap,
	}
	if res.Exited {
		resp.ExitStatus = res.Code & 0xff
	} else {
		resp.Signal = res.Signal.String()
		resp.ExitStatus = 128 + int(res.Signal)
	}
	for _, rec := range res.Audit {
		resp.AuditText = append(resp.AuditText, rec.String())
	}
	return resp
}

// matchesReference decodes one /v1/run answer body and reports whether
// its payload equals the spec's in-process reference; checkpoint
// digests, which the reference run does not take, are set aside.
func (h *hotSpec) matchesReference(body []byte) bool {
	var env schema.Envelope
	var resp schema.RunResponse
	if json.Unmarshal(body, &env) != nil || env.Open(schema.ServeV1, &resp) != nil {
		return false
	}
	resp.Checkpoints = nil
	got, err := json.Marshal(resp)
	return err == nil && bytes.Equal(got, h.want)
}

// newClient is the generator's resilient client: at most nproc
// connections to the gateway, and a fixed jitter seed.
func newClient(url string, seed int64) (*client.Client, *http.Transport) {
	tr := &http.Transport{
		MaxConnsPerHost:     runtime.NumCPU(),
		MaxIdleConnsPerHost: runtime.NumCPU(),
		IdleConnTimeout:     30 * time.Second,
	}
	return client.New(client.Config{
		BaseURL:        url,
		HTTPClient:     &http.Client{Transport: tr},
		JitterSeed:     seed,
		AttemptTimeout: 30 * time.Second,
	}), tr
}

// postRun sends one /v1/run through c under a fresh run id and returns
// the raw reply.
func postRun(ctx context.Context, c *client.Client, runID string, req schema.RunRequest) (*client.Reply, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return c.Exchange(ctx, "", runID, http.MethodPost, "/v1/run", body)
}
