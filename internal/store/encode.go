package store

import (
	"encoding/json"
	"strconv"

	"vdce/internal/jsonw"
)

// The write side of the on-disk format: records and snapshots appended
// field by field, byte for byte what encoding/json renders from the
// struct tags, so nothing reflects over these types on a job's path or
// inside the store's lock. The read side stays json.Unmarshal over the
// same tags, which remain the specification of the format. One
// difference from json.Marshal: a graph (json.RawMessage) is written
// verbatim, not compacted and HTML-escaped again — afg.Graph.AppendJSON
// emits that form already, and internLocked refuses what is not JSON.

func appendRecord(dst []byte, r *record) []byte {
	dst = jsonw.AppendString(append(dst, `{"k":`...), r.Kind)
	if r.Job != nil {
		dst = appendJob(append(dst, `,"job":`...), r.Job)
	}
	dst = jsonw.AppendStringField(dst, `"id":`, r.JobID)
	dst = jsonw.AppendStringField(dst, `"state":`, r.State)
	dst = jsonw.AppendStringField(dst, `"error":`, r.Error)
	dst = jsonw.AppendTimeField(dst, `"started_at":`, r.StartedAt)
	dst = jsonw.AppendTimeField(dst, `"finished_at":`, r.FinishedAt)
	if r.Owner != nil {
		dst = appendOwner(append(dst, `,"owner":`...), *r.Owner)
	}
	if r.Perf != nil {
		dst = appendPerf(append(dst, `,"perf":`...), *r.Perf)
	}
	if len(r.Perfs) > 0 {
		dst = jsonw.AppendList(append(dst, `,"perfs":`...), r.Perfs, appendPerf)
	}
	dst = jsonw.AppendUintField(dst, `"cursor":`, r.Cursor)
	dst = jsonw.AppendUintField(dst, `"ref":`, r.Ref)
	dst = appendRawField(dst, `"graph":`, r.Graph)
	return append(dst, '}')
}

func appendJob(dst []byte, j *JobRecord) []byte {
	dst = jsonw.AppendString(append(dst, `{"id":`...), j.ID)
	dst = jsonw.AppendStringField(dst, `"owner":`, j.Owner)
	dst = appendRawField(dst, `"graph":`, j.Graph)
	dst = jsonw.AppendUintField(dst, `"gref":`, j.GraphRef)
	dst = jsonw.AppendIntField(dst, `"k":`, j.K)
	dst = jsonw.AppendIntField(dst, `"home":`, j.Home)
	dst = jsonw.AppendIntField(dst, `"priority":`, j.Priority)
	dst = jsonw.AppendIntField(dst, `"share_weight":`, j.ShareWeight)
	if len(j.Labels) > 0 {
		dst = jsonw.AppendMap(append(dst, `,"labels":`...), j.Labels, jsonw.AppendString)
	}
	dst = jsonw.AppendTimeField(dst, `"deadline":`, j.Deadline)
	dst = jsonw.AppendTime(append(dst, `,"submitted_at":`...), j.SubmittedAt)
	dst = jsonw.AppendString(append(dst, `,"state":`...), j.State)
	dst = jsonw.AppendStringField(dst, `"error":`, j.Error)
	dst = jsonw.AppendTimeField(dst, `"started_at":`, j.StartedAt)
	dst = jsonw.AppendTimeField(dst, `"finished_at":`, j.FinishedAt)
	return append(dst, '}')
}

func appendOwner(dst []byte, o OwnerRecord) []byte {
	dst = jsonw.AppendString(append(dst, `{"owner":`...), o.Owner)
	dst = jsonw.AppendIntField(dst, `"weight":`, o.Weight)
	dst = jsonw.AppendTrueField(dst, `"has_caps":`, o.HasCaps)
	dst = jsonw.AppendIntField(dst, `"max_queued":`, o.MaxQueued)
	dst = jsonw.AppendIntField(dst, `"max_in_flight":`, o.MaxInFlight)
	dst = jsonw.AppendIntField(dst, `"max_hosts":`, o.MaxHosts)
	return append(dst, '}')
}

func appendPerf(dst []byte, p PerfRecord) []byte {
	dst = jsonw.AppendString(append(dst, `{"task":`...), p.Task)
	dst = jsonw.AppendString(append(dst, `,"host":`...), p.Host)
	dst = strconv.AppendInt(append(dst, `,"elapsed":`...), int64(p.Elapsed), 10)
	dst = jsonw.AppendTime(append(dst, `,"at":`...), p.At)
	return append(dst, '}')
}

func appendGraph(dst []byte, g graphRecord) []byte {
	dst = strconv.AppendUint(append(dst, `{"ref":`...), g.Ref, 10)
	return append(append(append(dst, `,"graph":`...), g.Graph...), '}')
}

// appendRawField appends key and raw, verbatim, unless raw is empty
// (omitempty).
func appendRawField(dst []byte, key string, raw json.RawMessage) []byte {
	if len(raw) == 0 {
		return dst
	}
	return append(jsonw.AppendKey(dst, key), raw...)
}

// appendState appends the state as a snapshot holds it.
func appendState(dst []byte, st *State) []byte {
	dst = append(dst, '{')
	dst = jsonw.AppendIntField(dst, `"max_job_seq":`, st.MaxJobSeq)
	if len(st.Graphs) > 0 {
		dst = jsonw.AppendList(jsonw.AppendKey(dst, `"graphs":`), st.Graphs, appendGraph)
	}
	if len(st.Jobs) > 0 {
		dst = jsonw.AppendMap(jsonw.AppendKey(dst, `"jobs":`), st.Jobs, appendJob)
	}
	if len(st.Owners) > 0 {
		dst = jsonw.AppendMap(jsonw.AppendKey(dst, `"owners":`), st.Owners, appendOwner)
	}
	if len(st.Perf) > 0 {
		dst = jsonw.AppendList(jsonw.AppendKey(dst, `"perf":`), st.Perf, appendPerf)
	}
	dst = jsonw.AppendUintField(dst, `"event_cursor":`, st.EventCursor)
	return append(dst, '}')
}
