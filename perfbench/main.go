// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload closed-loop — one client, the next balancing job
// starts when the previous one returns — for a fixed time, checks every
// job's output, and prints the metrics as the last line of standard
// output:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (tracing off). With
// -trace 1 the first half of the time runs untraced and the second half
// traced; the metrics are the per-layer ones, and the spans of the
// traced ops are written to a JSON file in -out. See README.md for the
// metric definitions and the reasons behind each workload.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(append(workloadNames(), extraWorkloads()...), ", "))
		seed    = flag.Int64("seed", 1, "workload seed; every input is generated from it")
		seconds = flag.Float64("seconds", 20, "measurement time of the run, in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for the spans file and the socket directories")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	if *seconds <= 0 {
		fail(fmt.Errorf("-seconds must be positive, got %g", *seconds))
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail(err)
	}
	// wire.NewCluster puts its Unix sockets in os.TempDir. A path relative
	// to the working directory keeps them inside the checkout and short
	// enough for the socket path limit.
	sockDir := filepath.Join(*out, "sock")
	if err := os.MkdirAll(sockDir, 0o755); err != nil {
		fail(err)
	}
	if rel, err := filepath.Rel(".", sockDir); err == nil {
		sockDir = rel
	}
	os.Setenv("TMPDIR", sockDir)

	// serve-wire's two nodes trade many small messages. On one P their
	// goroutines hand off without cross-core wake-ups, which on a shared
	// VM made its op times depend less on the host's load.
	if *name == "serve-wire" {
		runtime.GOMAXPROCS(1)
	}

	o := options{
		workload: *name,
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		outDir:   *out,
	}
	rep, err := run(o)
	if err != nil {
		fail(err)
	}
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "perfbench %s seed=%d traced=%v attempted=%d failed=%d fail_ratio=%g\n",
		o.workload, o.seed, o.traced, rep.Attempted, rep.Failed, float64(rep.Failed)/float64(rep.Attempted))
	for _, k := range sortedKeys(rep.Metrics) {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fail(err)
	}
	w.Write(line)
	w.WriteByte('\n')
	if err := w.Flush(); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// options configures one run.
type options struct {
	workload string
	seed     int64
	duration time.Duration
	traced   bool
	outDir   string // spans file; empty writes none
	// ops, when positive, runs exactly that many ops (per half of a
	// traced run) instead of running for duration; the tests use it.
	ops int
}

// report is the last line the benchmark prints.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// errs keeps the failed ops' errors for the log and the tests.
	errs []error
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// opOutcome is what one op reports back to the run loop.
type opOutcome struct {
	setupS, opS float64
	// loadRatio is max/avg rank load after the op, migrations the objects
	// moved and totalCost the workload's cost in load units.
	loadRatio, migrations, totalCost float64
	err                              error
}

// runner is one benchmark workload. op runs op number i: it makes the
// op's inputs from the run seed, sets up, runs and checks the op. When
// ot is non-nil the op is traced and adds its per-layer numbers to
// ot.layers. replay times the layer kernels on the workload's own
// inputs after the traced ops.
type runner interface {
	op(i int, ot *opTrace) opOutcome
	replay(l *layerTotals)
}

// opTrace is the tracing context of one traced op.
type opTrace struct {
	log    *spanLog
	id     int64 // the op's root span
	layers *layerTotals
}

// span opens a child span of the op and end closes it, returning its
// length in seconds; add adds to a per-layer metric. All three do
// nothing on an untraced op, whose opTrace is nil.
func (ot *opTrace) span(name string) span {
	if ot == nil {
		return span{}
	}
	return ot.log.open(ot.id, ot.id, name)
}

func (ot *opTrace) end(s span) float64 {
	if ot == nil {
		return 0
	}
	s = ot.log.close(s)
	return float64(s.End-s.Start) / 1e9
}

func (ot *opTrace) add(name string, v float64) {
	if ot != nil {
		ot.layers.add(name, v)
	}
}

func run(o options) (report, error) {
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return report{}, err
	}
	return runWith(o, w)
}

func runWith(o options, w runner) (report, error) {
	rep := report{Metrics: map[string]metricValue{}}
	var outs []opOutcome
	runOps := func(ot func(i int) *opTrace, until time.Time, n int) []opOutcome {
		var got []opOutcome
		for i := 0; ; i++ {
			if (n > 0 && i >= n) || (n <= 0 && i > 0 && !time.Now().Before(until)) {
				return got
			}
			// A collection between ops keeps one op's garbage from being
			// paid for by the next.
			runtime.GC()
			op := len(outs) + len(got)
			got = append(got, safeOp(w, op, ot(op)))
		}
	}
	start := time.Now()
	untraced := func(int) *opTrace { return nil }
	if !o.traced {
		outs = runOps(untraced, start.Add(o.duration), o.ops)
		rep.Metrics = endToEnd(outs)
	} else {
		outs = runOps(untraced, start.Add(o.duration/2), o.ops)
		plain := outs
		log := newSpanLog()
		layers := newLayerTotals()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		traced := runOps(func(op int) *opTrace {
			return &opTrace{log: log, id: log.ids.Add(1), layers: layers}
		}, start.Add(o.duration), o.ops)
		runtime.ReadMemStats(&after)
		outs = append(outs, traced...)
		layers.ops = len(traced)
		layers.add("proc.alloc_bytes", float64(after.TotalAlloc-before.TotalAlloc))
		layers.add("proc.gc_cycles", float64(after.NumGC-before.NumGC))
		layers.add("proc.gc_pause_s", float64(after.PauseTotalNs-before.PauseTotalNs)/1e9)
		w.replay(layers)
		rep.Metrics = layers.metrics()
		rep.Metrics["bench.trace_overhead"] = metricValue{
			ratio(percentile(opTimes(traced), 0.5), percentile(opTimes(plain), 0.5)), "ratio"}
		if o.outDir != "" {
			path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
			if err := log.writeSpans(path, o.workload, o.seed); err != nil {
				return report{}, err
			}
			fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", len(log.spans), path)
		}
	}
	rep.Attempted = len(outs)
	for i, out := range outs {
		if out.err != nil {
			rep.Failed++
			rep.errs = append(rep.errs, out.err)
			fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", i, out.err)
		}
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// safeOp runs one op, turning a panic into a failed op.
func safeOp(w runner, i int, ot *opTrace) (out opOutcome) {
	var root span
	if ot != nil {
		root = span{ID: ot.id, Op: ot.id, Name: "op", Start: ot.log.now()}
	}
	defer func() {
		if p := recover(); p != nil {
			out = opOutcome{err: fmt.Errorf("op %d panicked: %v", i, p)}
		}
		if ot != nil {
			ot.log.close(root)
		}
	}()
	return w.op(i, ot)
}

// endToEnd summarizes the ops of an untraced run.
func endToEnd(outs []opOutcome) map[string]metricValue {
	var setup, ratio, migr, cost []float64
	ok := 0
	for _, o := range outs {
		setup = append(setup, o.setupS)
		if o.err != nil {
			continue
		}
		ok++
		ratio = append(ratio, o.loadRatio)
		migr = append(migr, o.migrations)
		cost = append(cost, o.totalCost)
	}
	times := opTimes(outs)
	return map[string]metricValue{
		"setup_s":     {percentile(setup, 0.5), "s"},
		"op_s_p50":    {percentile(times, 0.5), "s"},
		"op_s_p90":    {percentile(times, 0.9), "s"},
		"load_ratio":  {percentile(ratio, 0.5), "ratio"},
		"migrations":  {mean(migr), "objects/op"},
		"total_cost":  {mean(cost), "load/op"},
		"peak_rss_mb": {peakRSSMiB(), "MiB"},
		"ok_ratio":    {float64(ok) / float64(len(outs)), "ratio"},
	}
}

// opTimes returns the wall times of the ops that got far enough to be
// timed.
func opTimes(outs []opOutcome) []float64 {
	var t []float64
	for _, o := range outs {
		if o.opS > 0 {
			t = append(t, o.opS)
		}
	}
	return t
}

// percentile interpolates linearly between the closest ranks; 0 when
// xs is empty (every op failed, which the report's failed count shows).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM)
// from /proc; where that is missing it falls back to the memory the Go
// runtime has obtained from the OS.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

func sortedKeys(m map[string]metricValue) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// errCheck collects the violated invariants of one op's output.
type errCheck struct{ msgs []string }

func (c *errCheck) fail(format string, args ...any) {
	c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
}

// near reports whether a and b agree to a relative 1e-9: the sums it
// compares are the same numbers added in different orders.
func (c *errCheck) near(what string, got, want float64) {
	d := got - want
	if d < 0 {
		d = -d
	}
	scale := want
	if scale < 0 {
		scale = -scale
	}
	if d > 1e-9*max(scale, 1) {
		c.fail("%s: got %.17g, want %.17g", what, got, want)
	}
}

func (c *errCheck) err() error {
	if len(c.msgs) == 0 {
		return nil
	}
	return errors.New(strings.Join(c.msgs, "; "))
}
