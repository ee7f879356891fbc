package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"anykey/internal/stats"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of a single run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOpts selects one run of one workload.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// smoke shrinks every population, op window and probe loop so the whole
	// registry can be exercised in a test; numbers from a smoke run mean
	// nothing.
	smoke bool
	// outDir receives spans and CPU profiles of traced runs.
	outDir string
	// log receives the human-readable lines printed before the result.
	log io.Writer
}

func (o *runOpts) logf(format string, args ...any) {
	if o.log != nil {
		fmt.Fprintf(o.log, format+"\n", args...)
	}
}

// measurement is what every workload hands back: the end-to-end numbers of
// the run and whatever per-layer numbers it could read from outside.
type measurement struct {
	attempted, failed int64
	notes             []string // first few correctness failures, for the log

	setupS    []float64 // one entry per set-up performed
	opsPerS   float64   // measured phase, a median over slices of the run
	readNs    []int64   // wall latency samples
	writeNs   []int64
	peakRSSMB float64

	layer map[string]float64 // per-layer values by registry name
}

func (m *measurement) fail(format string, args ...any) {
	m.failed++
	if len(m.notes) < 8 {
		m.notes = append(m.notes, fmt.Sprintf(format, args...))
	}
}

// endToEndMetrics renders the registry's end-to-end list from a measurement.
func (m *measurement) endToEndMetrics() map[string]float64 {
	rp := stats.Percentiles(m.readNs, 50, 99)
	wp := stats.Percentiles(m.writeNs, 50, 99)
	return map[string]float64{
		"setup_s":           median(m.setupS),
		"ops_per_s":         m.opsPerS,
		"peak_rss_mb":       m.peakRSSMB,
		"wall_read_p50_us":  float64(rp[0]) / 1e3,
		"wall_read_p99_us":  float64(rp[1]) / 1e3,
		"wall_write_p50_us": float64(wp[0]) / 1e3,
		"wall_write_p99_us": float64(wp[1]) / 1e3,
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// peakRSSMB reads VmHWM, the peak resident set, of process pid from /proc.
func peakRSSMB(pid int) float64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// render builds the driver-facing result for the selected metric list.
func render(defs []metricDef, values map[string]float64, m *measurement) result {
	res := result{
		Correct:   m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // JSON has no such numbers
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res
}

func (r result) jsonLine() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a map of floats and strings always marshals
	}
	return string(b)
}
