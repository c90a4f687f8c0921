package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// envHeader says where a set of numbers was taken. Two result files are only
// comparable when their core counts match.
type envHeader struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"git_commit"`
}

func readEnv() envHeader {
	return envHeader{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Commit:     gitCommit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is best effort: a checkout that is not a git repository (the
// driver's) reports "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// heapLiveMB forces a collection and returns what survived it. The second
// cycle drops what the first only unlinked (sync.Pool victims, finalized
// objects), which otherwise makes the reading depend on when the previous
// background cycle happened to run.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// procSample is a reading of the runtime's cumulative counters.
type procSample struct {
	gcCPU, totalCPU float64
	gcCycles        uint64
	allocBytes      uint64
}

var procNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
}

func readProc() procSample {
	s := make([]metrics.Sample, len(procNames))
	for i, n := range procNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return procSample{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		gcCycles:   s[2].Value.Uint64(),
		allocBytes: s[3].Value.Uint64(),
	}
}

func (a procSample) minus(b procSample) procSample {
	return procSample{a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.gcCycles - b.gcCycles, a.allocBytes - b.allocBytes}
}

func (a procSample) plus(b procSample) procSample {
	return procSample{a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU, a.gcCycles + b.gcCycles, a.allocBytes + b.allocBytes}
}

// procMetrics turns what the counters moved by over ops operations into the
// process.* per-layer metrics.
func procMetrics(m metricSet, d procSample, ops int, goroutinesPeak int) {
	if d.totalCPU > 0 {
		m.set("process.gc_cpu_frac", d.gcCPU/d.totalCPU)
	}
	if ops > 0 {
		m.set("process.gc_cycles_per_slot", float64(d.gcCycles)/float64(ops))
		m.set("process.alloc_kb_per_slot", float64(d.allocBytes)/1024/float64(ops))
	}
	m.set("process.peak_rss_mb", peakRSSMB())
	m.set("process.goroutines_peak", float64(goroutinesPeak))
}

// goroutineWatch samples the goroutine count until stopped.
type goroutineWatch struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak int
}

func watchGoroutines() *goroutineWatch {
	w := &goroutineWatch{stop: make(chan struct{})}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				if n := runtime.NumGoroutine(); n > w.peak {
					w.peak = n
				}
			}
		}
	}()
	return w
}

// done stops sampling and returns the peak.
func (w *goroutineWatch) done() int {
	close(w.stop)
	w.wg.Wait()
	return w.peak
}

// waitGoroutines waits for the goroutine count to fall back to base and
// reports an error naming the leftovers if it does not.
func waitGoroutines(base int) error {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		buf = buf[:runtime.Stack(buf, true)]
		return fmt.Errorf("%d goroutines remain after close (started with %d):\n%s", n, base, buf)
	}
	return nil
}
