// Package predict implements the performance-prediction phase the paper
// calls "the core of the given built-in scheduling algorithms": separate
// function evaluations of each task on each resource, in the style of Yan
// & Zhang's prediction model for non-dedicated heterogeneous NOWs.
//
// The model combines task parameters from the task-performance database
// (computation size, communication size, required memory) with resource
// parameters from the resource-performance database (speed factor,
// current CPU load, available memory), and optionally blends in the
// exponentially smoothed measured execution time of the same task on the
// same host — the calibration loop the Site Manager closes after every
// application execution.
package predict

import (
	"errors"
	"fmt"
	"time"

	"vdce/internal/repository"
)

// Predictor holds the model constants. The zero value is not useful; use
// Default or fill all fields.
type Predictor struct {
	// BaseOpsPerSec is the throughput of the base processor (speed factor
	// 1.0) in task "computation ops" per second. Task BaseTime values and
	// this constant must agree: BaseTime = ComputationOps / BaseOpsPerSec.
	BaseOpsPerSec float64
	// MemPenaltySlope inflates execution time when a task's required
	// memory exceeds the host's available memory: the time is multiplied
	// by 1 + slope * deficitRatio (thrashing model).
	MemPenaltySlope float64
	// IntraNodeBytesPerSec is the per-node communication bandwidth used
	// for parallel tasks' coordination overhead.
	IntraNodeBytesPerSec float64
	// MeasuredBlend is the weight given to a measured (smoothed) execution
	// time when one exists for (task, host); the model prediction gets
	// 1 - MeasuredBlend.
	MeasuredBlend float64
}

// Default returns the constants used across the examples and benchmarks:
// a 100 Mops base processor, 4x thrashing slope, 10 MB/s intra-site
// per-node coordination bandwidth, and a 0.6 preference for history.
func Default() Predictor {
	return Predictor{
		BaseOpsPerSec:        100e6,
		MemPenaltySlope:      4,
		IntraNodeBytesPerSec: 10e6,
		MeasuredBlend:        0.6,
	}
}

// Errors returned by prediction.
var (
	ErrHostDown   = errors.New("predict: host is down")
	ErrSaturated  = errors.New("predict: host load leaves no capacity")
	ErrBadRequest = errors.New("predict: invalid request")
)

// Predict estimates the execution time of a task with the given
// parameters on the given resource using nodes processors (nodes <= 1
// means sequential). measured, when non-nil, is the smoothed observed
// execution time of this task on this host and is blended into the
// estimate. The host arrives as the slim HostView — the model never
// reads workload history, so the scheduling path passes views straight
// out of a repository snapshot without cloning records.
//
// This is the paper's Predict(task_i, R_j).
func (p *Predictor) Predict(task repository.TaskParams, host repository.HostView, nodes int, measured *time.Duration) (time.Duration, error) {
	if p.BaseOpsPerSec <= 0 {
		return 0, fmt.Errorf("%w: BaseOpsPerSec must be positive", ErrBadRequest)
	}
	if task.ComputationOps < 0 {
		return 0, fmt.Errorf("%w: negative computation size", ErrBadRequest)
	}
	if host.Status == repository.HostDown {
		return 0, fmt.Errorf("%w: %s", ErrHostDown, host.HostName)
	}
	if nodes < 1 {
		nodes = 1
	}
	if !task.Parallelizable {
		nodes = 1
	}
	load := host.CPULoad
	if load < 0 {
		load = 0
	}
	if load >= 0.999 {
		return 0, fmt.Errorf("%w: %s at load %.3f", ErrSaturated, host.HostName, load)
	}
	speed := host.SpeedFactor
	if speed <= 0 {
		speed = 1
	}
	// Effective sequential rate on this host right now.
	rate := p.BaseOpsPerSec * speed * (1 - load)

	// Amdahl split for parallel execution: the serial fraction runs at the
	// single-node rate; the parallel remainder is divided across nodes.
	serial := task.SerialFraction
	if nodes == 1 {
		serial = 1 // whole task runs serially
	}
	var seconds float64
	if nodes == 1 {
		seconds = task.ComputationOps / rate
	} else {
		seconds = task.ComputationOps*serial/rate + task.ComputationOps*(1-serial)/(rate*float64(nodes))
		// Coordination overhead grows with node count.
		if p.IntraNodeBytesPerSec > 0 && task.CommunicationBytes > 0 {
			seconds += float64(task.CommunicationBytes) * float64(nodes-1) / p.IntraNodeBytesPerSec / float64(nodes)
		}
	}

	// Memory deficit penalty (thrashing).
	if task.RequiredMemBytes > 0 && host.AvailMem > 0 && task.RequiredMemBytes > host.AvailMem {
		deficit := float64(task.RequiredMemBytes-host.AvailMem) / float64(task.RequiredMemBytes)
		seconds *= 1 + p.MemPenaltySlope*deficit
	}

	model := time.Duration(seconds * float64(time.Second))
	if measured != nil {
		return p.Blend(model, load, *measured), nil
	}
	return model, nil
}

// Blend is how Predict folds the smoothed measured time of a task on a
// host at CPU load into its estimate without one (measured nil): a
// caller that keeps that estimate blends a newer measurement in here.
func (p *Predictor) Blend(model time.Duration, load float64, measured time.Duration) time.Duration {
	if !(p.MeasuredBlend > 0) {
		return model
	}
	// The smoothed measurement was taken under whatever load prevailed
	// then; rescale it to the current load assuming it was near-idle.
	adj := float64(measured) / (1 - max(load, 0))
	return time.Duration(p.MeasuredBlend*adj + (1-p.MeasuredBlend)*float64(model))
}

// Oracle binds a Predictor to a site repository: host selection reads
// the constants from P, and BaseTimeFor derives a task's level cost from
// the task-performance database.
type Oracle struct {
	P    Predictor
	Repo *repository.Repository
}

// NewOracle returns an Oracle over repo with Default constants.
func NewOracle(repo *repository.Repository) *Oracle {
	return &Oracle{P: Default(), Repo: repo}
}

// BaseTimeFor returns the level-computation cost of a task: the stored
// base-processor time if present, else the model's prediction on an
// idle base processor.
func (o *Oracle) BaseTimeFor(taskName string) (time.Duration, error) {
	params, err := o.Repo.TaskPerf.Params(taskName)
	if err != nil {
		return 0, err
	}
	if params.BaseTime > 0 {
		return params.BaseTime, nil
	}
	base := repository.HostView{HostName: "base", SpeedFactor: 1, Status: repository.HostUp}
	return o.P.Predict(params, base, 1, nil)
}
