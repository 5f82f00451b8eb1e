package vdce

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"vdce/internal/jobsapi"
	"vdce/internal/services"
	"vdce/internal/store"
)

// Jobs returns the last published status of every retained job in
// canonical (submission time, then ID) order.
func (env *Environment) Jobs() []services.JobStatus {
	return env.pipe.withPositions(env.Board.List())
}

// CountJobs returns how many retained jobs match the owner/state
// filters — the count-only listing (limit=0) — from the board's
// incremental tallies, never a status materialization per row.
func (env *Environment) CountJobs(owner, state string) int {
	return env.Board.CountFiltered(owner, state)
}

// ListJobsAfter returns up to limit job statuses matching the
// owner/state filters that sort strictly after the cursor in canonical
// order, plus whether more matches follow. It is the keyset-pagination
// backend of GET /v1/jobs: cost is proportional to the page, not to how
// deep the page sits, so the last page of a 100k-job board costs the
// same as the first.
func (env *Environment) ListJobsAfter(owner, state string, after jobsapi.Cursor, limit int) ([]services.JobStatus, bool) {
	page, more := env.Board.PageAfter(owner, state, after.Submitted, after.ID, limit)
	return env.pipe.withPositions(page), more
}

// withPositions overlays the live admission-queue position on the
// queued rows of a board read — the one field of a listed row that is
// not the job's last published status. One fair-queuing replay covers
// every queued row; reads without queued rows pay for none.
func (p *pipeline) withPositions(rows []services.JobStatus) []services.JobStatus {
	var positions map[string]int
	for i := range rows {
		if rows[i].State != services.JobStateQueued {
			continue
		}
		if positions == nil {
			positions = p.admit.positions()
		}
		rows[i].QueuePosition = positions[rows[i].ID]
	}
	return rows
}

// Owners reports every known owner's fair-share weight, configured
// quota limits, and live usage counters. Usage is derived from the job
// board — the same ground truth /v1/jobs serves — so the two surfaces
// cannot disagree; weights come from the admission queue's fair-share
// state and limits from the pipeline configuration. Owners are sorted
// by name.
func (env *Environment) Owners() []services.OwnerStatus {
	usages := env.Board.OwnerUsages()
	weights := env.pipe.admit.ownerWeights()
	boardWeights := env.Board.OwnerWeights()
	names := make([]string, 0, len(usages)+len(weights))
	for o := range usages {
		names = append(names, o)
	}
	for o := range weights {
		if _, ok := usages[o]; !ok {
			names = append(names, o)
		}
	}
	sort.Strings(names)
	out := make([]services.OwnerStatus, 0, len(names))
	for _, o := range names {
		out = append(out, env.ownerStatus(o, usages[o], boardWeights[o]))
	}
	return out
}

// ownerStatus builds one owner's /v1/owners row from the admission
// queue's effective admin state (per-owner overrides included). The
// queue prunes fully drained owners, so for an owner it no longer
// tracks the weight falls back to lastWeight — the latest-submitted
// weight the job board remembers from the owner's retained rows.
func (env *Environment) ownerStatus(owner string, usage services.OwnerUsage, lastWeight int) services.OwnerStatus {
	weight, pinned, caps, _, known := env.pipe.admit.ownerAdmin(owner)
	if !known && lastWeight >= 1 {
		weight = lastWeight
	}
	return services.OwnerStatus{
		Owner:        owner,
		Weight:       clampShareWeight(weight),
		WeightPinned: pinned,
		MaxQueued:    caps.MaxQueuedPerOwner,
		MaxInFlight:  caps.MaxInFlightPerOwner,
		MaxHosts:     caps.MaxHostsPerOwner,
		Usage:        usage,
	}
}

// UpdateOwner applies a runtime owner-admin change: a provided weight
// pins the owner's fair-share weight (submissions no longer move it),
// and any provided quota field installs a per-owner cap override
// merged over the owner's current effective caps (0 = that cap
// unlimited). The change takes effect on the live admission queue
// immediately — parked dispatches re-check against the new caps — and
// is persisted to the durable store when one is configured, so it
// survives restarts. Returns the owner's refreshed status.
func (env *Environment) UpdateOwner(owner string, upd services.OwnerUpdate) (services.OwnerStatus, error) {
	if upd.Empty() {
		return services.OwnerStatus{}, errors.New("vdce: empty owner update")
	}
	_, _, cur, hadOverride, _ := env.pipe.admit.ownerAdmin(owner)
	weight := 0
	if upd.Weight != nil {
		weight = clampShareWeight(*upd.Weight)
	}
	var caps *QuotaConfig
	if hadOverride || upd.MaxQueued != nil || upd.MaxInFlight != nil || upd.MaxHosts != nil {
		merged := cur
		if upd.MaxQueued != nil {
			merged.MaxQueuedPerOwner = *upd.MaxQueued
		}
		if upd.MaxInFlight != nil {
			merged.MaxInFlightPerOwner = *upd.MaxInFlight
		}
		if upd.MaxHosts != nil {
			merged.MaxHostsPerOwner = *upd.MaxHosts
		}
		caps = &merged
	}
	env.pipe.admit.setOwnerAdmin(owner, weight, caps)
	// A raised cap may make a parked owner poppable again.
	env.pipe.wake()
	if env.pipe.store != nil {
		w, pinned, eff, override, _ := env.pipe.admit.ownerAdmin(owner)
		rec := store.OwnerRecord{Owner: owner, HasCaps: override}
		if pinned {
			rec.Weight = w
		}
		if override {
			rec.MaxQueued = eff.MaxQueuedPerOwner
			rec.MaxInFlight = eff.MaxInFlightPerOwner
			rec.MaxHosts = eff.MaxHostsPerOwner
		}
		env.storeErr("owner-updated", env.pipe.store.OwnerUpdated(rec), "owner", owner)
	}
	return env.ownerStatus(owner, env.Board.OwnerUsages()[owner], 0), nil
}

// Job returns the last published status of one retained job, with its
// live queue position while it is queued.
func (env *Environment) Job(id string) (services.JobStatus, bool) {
	s, ok := env.Board.Get(id)
	if ok && s.State == services.JobStateQueued {
		if j, live := env.pipe.job(id); live {
			s.QueuePosition = env.pipe.admit.position(j)
		}
	}
	return s, ok
}

// ErrUnknownJob is returned by CancelJob for IDs the job board does not
// retain.
var ErrUnknownJob = errors.New("vdce: unknown job")

// CancelJob cancels the identified job: queued jobs are dropped from the
// admission queue, running jobs are aborted through the execution
// engine's cancellation path. Canceling a terminal job is a no-op.
func (env *Environment) CancelJob(id string) error {
	if j, ok := env.pipe.job(id); ok {
		j.Cancel()
	} else if _, ok := env.Board.Get(id); !ok {
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return nil
}

// Drain blocks until every job admitted so far has reached a terminal
// state, or ctx ends. Jobs submitted after Drain starts are not waited
// for.
func (env *Environment) Drain(ctx context.Context) error {
	for _, j := range env.pipe.records() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-j.done:
		}
	}
	return nil
}
