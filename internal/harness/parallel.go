// Wall-clock-parallel experiment execution. An experiment is a sequence of
// independent cells — one measurement run or fill-to-full per (design,
// workload, knob) point, each owning its own device — so the cells are
// embarrassingly parallel even though the simulation inside each is
// single-threaded virtual time.
//
// Experiment bodies are written as straight-line code that consumes each
// cell's result immediately, so parallelism is recovered in three phases:
//
//  1. Plan: run the body with a runner that records every cell it asks for
//     and hands back placeholder results. Bodies iterate static
//     design/workload lists — control flow never depends on measured
//     values — so the recorded cell list is exactly what a real run
//     executes.
//  2. Execute: run the recorded cells on a bounded worker pool. Each cell
//     is deterministic given its config, so results are identical to a
//     serial run no matter the interleaving.
//  3. Replay: run the body again with the memoized results, producing the
//     same report a serial run prints, byte for byte.
package harness

import (
	"errors"
	"fmt"
	"sync"

	"anykey"
	"anykey/internal/stats"
	"anykey/internal/workload"
)

// cell is one independent unit of an experiment: a comparable config value
// that can run itself, producing an R. The config value is also the cell's
// memo key — two requests for an equal config are one cell — so a new kind
// of run is one type with these four methods and nothing else to register.
type cell[R any] interface {
	comparable
	// execute runs the cell for real.
	execute() (R, error)
	// placeholder is the result with the cell's identity and no
	// measurements: what the plan pass hands the body, and what a real run
	// starts from. Every pointer a body dereferences is non-nil, so bodies
	// can format percentiles and fractions from it without caring that the
	// numbers are zeros.
	placeholder() R
	// label names the cell in error messages.
	label() string
	// progress is the line logged when the cell finishes.
	progress(R) string
}

// cellRunner is how an experiment body obtains a cell's result when the
// cells run on a pool: it first records each distinct cell in first-use
// order and answers placeholders (plan), then serves the memoized outcomes
// (replay). A nil runner executes cells in place.
type cellRunner struct {
	planned  []plannedCell
	outcomes map[any]*cellOutcome // by config value; nil entries while planning
	replay   bool
}

// plannedCell is a recorded cell with its type erased for the pool.
type plannedCell struct {
	key     any
	execute func() (res any, progress string, err error)
}

// cellOutcome is a completed cell.
type cellOutcome struct {
	res any
	err error
}

// runCell obtains cell c's result through o's runner, with errors labelled
// by the cell.
func runCell[R any, C cell[R]](o *ExpOptions, c C) (res R, err error) {
	switch r := o.runner; {
	case r == nil:
		if res, err = c.execute(); err == nil {
			o.progress("%s", c.progress(res))
		}
	case !r.replay:
		if _, seen := r.outcomes[c]; !seen {
			r.outcomes[c] = nil
			r.planned = append(r.planned, plannedCell{key: c, execute: func() (any, string, error) {
				res, err := c.execute()
				if err != nil {
					return nil, "", err
				}
				return res, c.progress(res), nil
			}})
		}
		res = c.placeholder()
	default:
		if out, ok := r.outcomes[c]; !ok {
			err = errors.New("harness: replay asked for an unplanned cell")
		} else if err = out.err; err == nil {
			res = out.res.(R)
		}
	}
	if err != nil {
		var zero R
		return zero, fmt.Errorf("%s: %w", c.label(), err)
	}
	return res, nil
}

// fillConfig identifies one fill-to-full cell.
type fillConfig struct {
	Opts anykey.Options
	Spec workload.Spec
	Seed int64
}

func (c RunConfig) execute() (*Result, error) { return Run(c) }
func (c RunConfig) label() string             { return fmt.Sprintf("%s/%s", c.Device.Design, c.Workload.Name) }
func (c RunConfig) progress(res *Result) string {
	return fmt.Sprintf("  %-8s %-8s ops=%-8d IOPS=%-9s p95(read)=%v",
		res.System, res.Workload, res.Ops, fiops(res.IOPS), res.ReadLat.Percentile(95))
}
func (c RunConfig) placeholder() *Result {
	res := &Result{
		System:       c.Device.Design.String(),
		Workload:     c.Workload.Name,
		ReadAccesses: stats.NewIntHist(8),
	}
	// Traced cells carry a non-nil (empty) blame report and open-loop cells
	// an empty scorecard, so bodies that require one don't fail during the
	// planning pass, before any cell has actually run.
	if c.Device.Trace != nil {
		res.Blame = &anykey.BlameReport{}
	}
	if c.Workload.Arrival.Open() {
		res.Open = &OpenStats{}
	}
	return res
}

func (c fillConfig) execute() (*FillResult, error) { return FillToFull(c.Opts, c.Spec, c.Seed) }
func (c fillConfig) label() string                 { return fmt.Sprintf("%v/%s", c.Opts.Design, c.Spec.Name) }
func (c fillConfig) progress(fr *FillResult) string {
	return fmt.Sprintf("  %-8s %-8s fill=%.1f%% (%d pairs)",
		fr.System, fr.Workload, fr.Utilization*100, fr.Pairs)
}
func (c fillConfig) placeholder() *FillResult {
	return &FillResult{System: c.Opts.Design.String(), Workload: c.Spec.Name}
}

func (c ClusterRunConfig) execute() (*ClusterResult, error) { return RunCluster(c) }
func (c ClusterRunConfig) label() string {
	return fmt.Sprintf("cluster %v x%d/%s", c.Cluster.Device.Design, c.Cluster.Shards, c.Workload.Name)
}
func (c ClusterRunConfig) progress(res *ClusterResult) string {
	return fmt.Sprintf("  %-11s %-8s ops=%-8d IOPS=%-9s p95(batch)=%v",
		res.System, res.Workload, res.Ops, fiops(res.IOPS), res.BatchLat.Percentile(95))
}
func (c ClusterRunConfig) placeholder() *ClusterResult {
	res := &ClusterResult{
		System:   fmt.Sprintf("%s x%d", c.Cluster.Device.Design, c.Cluster.Shards),
		Workload: c.Workload.Name,
		Shards:   c.Cluster.Shards,
	}
	if c.Workload.Arrival.Open() {
		res.Open = &OpenStats{}
	}
	return res
}

func (c TxnRunConfig) execute() (*TxnResult, error) { return RunTxn(c) }
func (c TxnRunConfig) label() string {
	return fmt.Sprintf("txn %s θ=%g wf=%g", c.Mode, c.Theta, c.WriteRatio)
}
func (c TxnRunConfig) progress(res *TxnResult) string {
	return fmt.Sprintf("  %-11s %-10s θ=%-4g wf=%-4g committed=%-7d aborts=%-5d good=%s/s",
		res.System, res.Mode, res.Theta, res.WriteRatio, res.Committed, res.Aborted, fiops(res.GoodTxnPerSec))
}
func (c TxnRunConfig) placeholder() *TxnResult {
	return &TxnResult{
		System: fmt.Sprintf("%s x%d", c.Cluster.Device.Design, c.Cluster.Shards),
		Mode:   c.Mode,
		Theta:  c.Theta, WriteRatio: c.WriteRatio,
	}
}

// runParallel plans an experiment's cells, executes them on opt.Parallel
// workers, then replays the body with the results.
func runParallel(e Experiment, opt ExpOptions) (*Report, error) {
	runner := &cellRunner{outcomes: make(map[any]*cellOutcome)}
	po := opt
	po.runner = runner
	po.Progress = nil // per-cell progress is printed by the pool
	if _, err := e.Run(po); err != nil {
		// Only non-cell failures can surface here (planned cells always
		// "succeed" with placeholders).
		return nil, err
	}
	runner.executeCells(&opt)
	return e.Run(po)
}

// executeCells runs every planned cell on a worker pool, fills the memo map
// and switches the runner to replay. Progress lines are printed as cells
// complete (so in nondeterministic order), serialized by the same mutex that
// guards the map.
func (r *cellRunner) executeCells(o *ExpOptions) {
	workers := min(o.Parallel, len(r.planned))
	if workers < 1 {
		workers = 1
	}
	var mu sync.Mutex
	jobs := make(chan plannedCell)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range jobs {
				res, line, err := c.execute()
				mu.Lock()
				r.outcomes[c.key] = &cellOutcome{res: res, err: err}
				if err == nil {
					o.progress("%s", line)
				}
				mu.Unlock()
			}
		}()
	}
	for _, c := range r.planned {
		jobs <- c
	}
	close(jobs)
	wg.Wait()
	r.replay = true
}
