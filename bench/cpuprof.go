package main

import (
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// reduceProfile reduces a CPU profile with `go tool pprof -top` to the flat
// self-time share of each cpuBuckets entry. own says the profile is of the
// benchmark process itself, whose package main is the load generator.
func reduceProfile(path string, own bool) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -top %s: %w", path, err)
	}
	flat := map[string]float64{}
	var total float64
	inTable := false
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if !inTable {
			inTable = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		d, err := time.ParseDuration(f[0])
		if err != nil {
			continue
		}
		flat[cpuBucket(strings.Join(f[5:], " "), own)] += d.Seconds()
		total += d.Seconds()
	}
	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		shares[b] = ratio(flat[b], total)
	}
	return shares, nil
}

// cpuBucket maps a profiled function to its cpuBuckets entry by package.
func cpuBucket(fn string, own bool) string {
	// "anykey/internal/cluster/fleet.(*Fleet).Get" -> "anykey/internal/cluster/fleet"
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return "other"
	}
	pkg := fn[:slash+1+dot]
	if rest, ok := strings.CutPrefix(pkg, "anykey/internal/"); ok {
		leaf := rest[strings.LastIndexByte(rest, '/')+1:]
		if leaf == "zipfian" {
			return "workload" // key popularity draws are workload generation
		}
		for _, b := range cpuPackages {
			if leaf == b {
				return b
			}
		}
		return "other"
	}
	switch {
	case pkg == "main" && own:
		return "bench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") ||
		pkg == "internal/bytealg" || pkg == "internal/abi" || pkg == "sync" || pkg == "sync/atomic":
		if pkg == "runtime/internal/syscall" || pkg == "internal/runtime/syscall" {
			return "syscall"
		}
		return "runtime"
	case pkg == "syscall" || pkg == "internal/poll" || pkg == "net" || pkg == "os" || strings.HasPrefix(pkg, "internal/syscall/"):
		return "syscall"
	}
	return "other"
}
