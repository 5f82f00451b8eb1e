package vdce

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"vdce/internal/afg"
	"vdce/internal/jobsapi"
	"vdce/internal/services"
	"vdce/internal/store"
)

// RecoveryReport summarizes what the boot replay of a durable store
// did: how many queued jobs were re-admitted, how many in-flight jobs
// were re-dispatched through the scheduling path, and how many terminal
// jobs were retained for the listing surfaces.
type RecoveryReport struct {
	// QueuedRecovered is how many jobs that were queued at the crash
	// were re-admitted with owner, priority, deadline, and share weight
	// intact.
	QueuedRecovered int
	// InFlightRedispatched is how many scheduling/running jobs were
	// re-adopted: re-queued at their original aging rank and
	// re-dispatched through a fresh scheduling round (their previous
	// partial progress died with the old incarnation's engine).
	InFlightRedispatched int
	// TerminalRetained is how many done/failed/canceled jobs were
	// restored to the board and listing surfaces.
	TerminalRetained int
	// DeadlineExpiredAtReplay is how many in-flight-or-queued jobs whose
	// deadline passed during the downtime were terminalized as
	// deadline-exceeded at replay instead of being re-dispatched.
	DeadlineExpiredAtReplay int
}

// loadRecovered folds the store's recovered state into the pipeline:
// owner-admin records into the admission queue, terminal jobs onto the
// board alone, and queued/in-flight jobs into records ready for adoption —
// returned in the store's submission order (time, then job sequence).
// Runs before any worker starts, so no locks race it.
func (p *pipeline) loadRecovered(rs *store.State) []*jobRecord {
	for _, rec := range rs.Owners {
		var caps *QuotaConfig
		if rec.HasCaps {
			caps = &QuotaConfig{
				MaxQueuedPerOwner:   rec.MaxQueued,
				MaxInFlightPerOwner: rec.MaxInFlight,
				MaxHostsPerOwner:    rec.MaxHosts,
			}
		}
		p.admit.setOwnerAdmin(rec.Owner, rec.Weight, caps)
	}
	var adopt []*jobRecord
	for _, rec := range rs.SortedJobs() {
		job := &jobRecord{
			ID:          rec.ID,
			Owner:       rec.Owner,
			K:           rec.K,
			Labels:      rec.Labels,
			home:        rec.Home,
			priority:    rec.Priority,
			shareWeight: clampShareWeight(rec.ShareWeight),
			deadline:    rec.Deadline,
			pipe:        p,
			done:        make(chan struct{}),
			timings: services.JobTimings{
				SubmittedAt: rec.SubmittedAt, RunningAt: rec.StartedAt, FinishedAt: rec.FinishedAt,
			},
			// Every recovered job's chain starts at its original submission.
			phases: 1 << phSubmitted,
		}
		if job.home < 0 || job.home >= len(p.env.Sites) {
			// The testbed may be configured differently than the one the
			// job was submitted to; fall back to the accounts site.
			job.home = 0
		}
		g, gerr := afg.DecodeJSON(rec.Graph)
		if g != nil {
			job.Graph = g
		} else {
			// A record must always carry a graph (Status reads its
			// name); an undecodable one terminalizes below.
			job.Graph = afg.NewGraph(rec.ID)
		}
		terminal := true
		expired := false
		switch {
		case gerr != nil:
			job.state = JobFailed
			job.err = fmt.Errorf("vdce: recovered job graph: %w", gerr)
		case rec.State == services.JobStateDone:
			// The result payload is not persisted and a recovered job has
			// no handle to hold one, but the terminal status survives.
			job.state = JobDone
		case rec.State == services.JobStateCanceled:
			job.state = JobCanceled
			job.err = ErrJobCanceled
		case rec.State == services.JobStateFailed:
			job.state = JobFailed
			if rec.Error != "" {
				job.err = errors.New(rec.Error)
			} else {
				job.err = errors.New("vdce: job failed before restart")
			}
		case !rec.Deadline.IsZero() && !time.Now().Before(rec.Deadline):
			// The job's deadline expired while the control plane was down:
			// re-admitting and dispatching it would burn scheduler and host
			// capacity on work that is already lost. Terminalize it at
			// replay instead — with a stream event, because unlike the
			// terminal restores below this IS a lifecycle transition.
			job.state = JobFailed
			job.err = ErrJobDeadlineExceeded
			job.timings.FinishedAt = rec.Deadline
			expired = true
		default:
			// Queued, scheduling, or running at the crash: re-adopt as
			// queued. In-flight jobs lost their partial progress with the
			// old engine; they re-schedule and re-execute from scratch.
			terminal = false
			job.state = JobQueued
			job.recovered = rec.State != services.JobStateQueued
			job.timings.RunningAt = time.Time{}
		}
		m := p.env.obsM
		if terminal {
			// Terminal restores get their terminal stamp synthesized so
			// their traces satisfy the same complete-chain contract as live
			// ones, and their timings are sealed like a live terminal's.
			at := job.timings.FinishedAt
			if at.IsZero() {
				at = rec.SubmittedAt
			}
			job.sealLocked(at)
			if expired {
				p.recovery.DeadlineExpiredAtReplay++
				m.recoveryExpired.Inc()
				job.publish()
				p.persistState(job)
			} else {
				p.recovery.TerminalRetained++
				m.recoveryTerminal.Inc()
				// Restore the board row without publishing a stream event: a
				// reboot is not a lifecycle transition.
				p.env.Board.Update(job.Status())
			}
		} else {
			job.pointLocked("recovered", rec.State, time.Now())
			if job.recovered {
				p.recovery.InFlightRedispatched++
				m.recoveryRedispatched.Inc()
			} else {
				p.recovery.QueuedRecovered++
				m.recoveryRequeued.Inc()
			}
			adopt = append(adopt, job)
			p.byID[job.ID] = job
		}
	}
	p.nextID = rs.MaxJobSeq
	return adopt
}

// adoptRecovered seeds the admission heaps with the jobs loadRecovered
// returned, before any worker starts: in canonical submission order, so
// seq tie-breaks reproduce the pre-crash within-owner order exactly.
// Each takes one of the queue slots startPipeline sized for it.
func (p *pipeline) adoptRecovered(adopt []*jobRecord) {
	p.recoveryPending.Store(int64(len(adopt)))
	for _, job := range adopt {
		job.mu.Lock()
		job.replayPending = true
		job.mu.Unlock()
		p.slots <- struct{}{}
		job.stampPhase(phAdmitted, time.Now())
		p.begin(job)
		p.enqueue(job, true)
		if job.recovered {
			// In-flight at the crash: announce the re-adoption on the
			// stream so subscribers see the job return to the queue.
			job.publishEvent(jobsapi.EventRecovered)
		} else {
			job.publish()
		}
	}
}

// graphBufs holds the buffers persistSubmitted encodes graphs into.
var graphBufs = sync.Pool{New: func() any { return new([]byte) }}

// persistSubmitted appends a new job's full record to the durable log.
// The graph is encoded afresh each time — the store recognizes one it
// has already written by its bytes, so an application edited between
// two submissions is never mistaken for its earlier self — into a
// pooled buffer the store reads and does not keep. Store appends do not
// fail the job: an I/O error is sticky in the log, is reported through
// storeErr, and the in-memory pipeline keeps serving.
func (p *pipeline) persistSubmitted(j *jobRecord) {
	if p.store == nil {
		return
	}
	buf := graphBufs.Get().(*[]byte)
	defer graphBufs.Put(buf)
	*buf = j.Graph.AppendJSON((*buf)[:0])
	err := p.store.JobSubmitted(store.JobRecord{
		ID:          j.ID,
		Owner:       j.Owner,
		Graph:       *buf,
		K:           j.K,
		Home:        j.home,
		Priority:    j.priority,
		ShareWeight: j.shareWeight,
		Labels:      j.Labels,
		Deadline:    j.deadline,
		SubmittedAt: j.timings.SubmittedAt,
		State:       services.JobStateQueued,
	})
	p.env.storeErr("job-submitted", err, "job_id", j.ID)
}

// persistState appends a job's lifecycle transition to the durable log.
// Suppressed while the pipeline is stopping: a graceful shutdown fails
// in-flight jobs with ErrPipelineClosed, but durably they remain
// queued/running — exactly the state the next boot re-adopts them from.
func (p *pipeline) persistState(j *jobRecord) {
	if p.store == nil || p.stopping.Load() {
		return
	}
	j.mu.Lock()
	state, errMsg := j.state.String(), errText(j.err)
	started, finished := j.timings.RunningAt, j.timings.FinishedAt
	j.mu.Unlock()
	p.env.storeErr("job-state", p.store.JobState(j.ID, state, errMsg, started, finished), "job_id", j.ID)
}
