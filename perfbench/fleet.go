package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"roload/internal/schema"
)

// fleet is a running roload-gateway in front of two roload-serve
// backends, each with one worker, all started from the binaries built
// from the source under test.
type fleet struct {
	gwURL    string
	backends []string
	procs    []*exec.Cmd // backends first, the gateway last
	exited   []chan error
	stores   []string // store directories, removed on stop
}

// freePorts asks the kernel for n distinct unused loopback ports,
// holding each open until all are chosen.
func freePorts(n int) ([]int, error) {
	var ports []int
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// startFleet launches the fleet, with an artifact store on each
// backend when store is set, and returns once the gateway admits both
// backends, with the time that took. A launch that fails, say because
// another process took a chosen port first, is retried twice on fresh
// ports.
func startFleet(ctx context.Context, e *env, tag string, store bool) (*fleet, time.Duration, error) {
	var err error
	for try := 0; try < 3; try++ {
		var f *fleet
		var d time.Duration
		if f, d, err = launchFleet(ctx, e, fmt.Sprintf("%s-%d", tag, try), store); err == nil {
			return f, d, nil
		}
	}
	return nil, 0, err
}

func launchFleet(ctx context.Context, e *env, tag string, store bool) (*fleet, time.Duration, error) {
	ports, err := freePorts(3)
	if err != nil {
		return nil, 0, err
	}
	f := &fleet{gwURL: fmt.Sprintf("http://127.0.0.1:%d", ports[2])}
	start := time.Now()
	for i := 0; i < 2; i++ {
		addr := fmt.Sprintf("127.0.0.1:%d", ports[i])
		f.backends = append(f.backends, "http://"+addr)
		args := []string{"-addr", addr, "-workers", "1"}
		if store {
			dir, err := filepath.Abs(filepath.Join(e.workDir, fmt.Sprintf("%s-store%d", tag, i)))
			if err != nil {
				return nil, 0, err
			}
			args = append(args, "-store", dir)
			f.stores = append(f.stores, dir)
		}
		if err := f.launch(e, fmt.Sprintf("%s-serve%d", tag, i), "roload-serve", args); err != nil {
			f.stop()
			return nil, 0, err
		}
	}
	gwArgs := []string{"-addr", fmt.Sprintf("127.0.0.1:%d", ports[2]),
		"-backends", strings.Join(f.backends, ","), "-probe-interval", "20ms", "-replicas", "2"}
	if err := f.launch(e, tag+"-gateway", "roload-gateway", gwArgs); err != nil {
		f.stop()
		return nil, 0, err
	}
	if err := f.awaitAdmitted(ctx, 30*time.Second); err != nil {
		f.stop()
		return nil, 0, err
	}
	return f, time.Since(start), nil
}

// launch starts one binary with its stderr in a log file. The child is
// killed if the benchmark dies first.
func (f *fleet) launch(e *env, name, bin string, args []string) error {
	logf, err := os.Create(filepath.Join(e.workDir, name+".log"))
	if err != nil {
		return err
	}
	cmd := exec.Command(filepath.Join(e.binDir, bin), args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("starting %s: %w", bin, err)
	}
	done := make(chan error, 1)
	go func() {
		done <- cmd.Wait()
		logf.Close()
	}()
	f.procs = append(f.procs, cmd)
	f.exited = append(f.exited, done)
	return nil
}

// awaitAdmitted polls the gateway's /healthz until both backends are
// admitted, failing early if any process exits.
func (f *fleet) awaitAdmitted(ctx context.Context, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		for i, done := range f.exited {
			select {
			case err := <-done:
				done <- err
				return fmt.Errorf("%s exited during start-up: %v", f.procs[i].Path, err)
			default:
			}
		}
		var h schema.GatewayHealth
		if err := getEnvelope(ctx, f.gwURL+"/healthz", &h); err == nil && h.Admitted == 2 {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("gateway did not admit both backends in time")
}

// stop drains every process with SIGTERM, the gateway first, waits
// for each to exit, killing any that outlives the grace period, and
// removes the stores.
func (f *fleet) stop() {
	for i := len(f.procs) - 1; i >= 0; i-- {
		f.procs[i].Process.Signal(syscall.SIGTERM) //nolint:errcheck // an exited process needs no signal
		select {
		case <-f.exited[i]:
		case <-time.After(15 * time.Second):
			f.procs[i].Process.Kill() //nolint:errcheck // best effort; the wait below reaps it
			<-f.exited[i]
		}
	}
	for _, dir := range f.stores {
		os.RemoveAll(dir) //nolint:errcheck // the work directory is wiped on the next run anyway
	}
	f.procs, f.exited, f.stores = nil, nil, nil
	http.DefaultClient.CloseIdleConnections()
}

// peakRSSMB is the largest peak resident set among the fleet's
// processes, in MiB.
func (f *fleet) peakRSSMB() float64 {
	peak := 0.0
	for _, p := range f.procs {
		peak = max(peak, peakRSSMB(strconv.Itoa(p.Process.Pid)))
	}
	return peak
}

func selfPeakRSSMB() float64 { return peakRSSMB("self") }

// peakRSSMB reads VmHWM from /proc/<pid>/status.
func peakRSSMB(pid string) float64 {
	fh, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// fleetCounters is the sum of the counters the fleet's /metrics
// documents expose, read before and after the measured window.
type fleetCounters struct {
	imageHits, imageMisses float64
	serviceIdem            float64
	storePuts, logBytes    float64
	pushes, pushFailures   float64
	failovers, gatewayIdem float64
}

func (f *fleet) counters(ctx context.Context) (fleetCounters, error) {
	var c fleetCounters
	for _, b := range f.backends {
		var m schema.ServeMetrics
		if err := getEnvelope(ctx, b+"/metrics", &m); err != nil {
			return c, err
		}
		c.imageHits += float64(m.ImageCache.Hits)
		c.imageMisses += float64(m.ImageCache.Misses)
		c.serviceIdem += float64(m.Idempotency.Entries)
		if m.Store != nil {
			c.storePuts += float64(m.Store.Puts)
			c.logBytes += float64(m.Store.LogBytes)
		}
		if m.Replication != nil {
			c.pushes += float64(m.Replication.Pushes)
			c.pushFailures += float64(m.Replication.PushFailures)
		}
	}
	var g schema.GatewayMetrics
	if err := getEnvelope(ctx, f.gwURL+"/metrics", &g); err != nil {
		return c, err
	}
	c.failovers = float64(g.Failovers)
	c.gatewayIdem = float64(g.Idempotency.Entries)
	return c, nil
}

// getEnvelope GETs url and opens its roload-serve/v1 envelope into out.
func getEnvelope(ctx context.Context, url string, out any) error {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	var env schema.Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return env.Open(schema.ServeV1, out)
}
