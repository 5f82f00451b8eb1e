package services

import (
	"strconv"

	"vdce/internal/jsonw"
)

// The wire form of a job status. Every HTTP surface that emits a
// JobStatus — list pages, single-job answers, the submit answer, SSE
// frames — appends it with AppendJSON; nothing reflects over these
// types to encode them. The output is byte for byte what encoding/json
// renders from the struct tags (field order, omitempty/omitzero, HTML
// and U+2028/U+2029 escaping, RFC 3339 nanosecond timestamps, ES6 float
// formatting), so clients keep decoding through the tags and the tags
// stay the specification of the format.

// AppendJSON appends the status as a JSON object.
func (s JobStatus) AppendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	dst = jsonw.AppendString(jsonw.AppendKey(dst, `"id":`), s.ID)
	dst = jsonw.AppendString(jsonw.AppendKey(dst, `"app":`), s.App)
	dst = jsonw.AppendStringField(dst, `"owner":`, s.Owner)
	dst = jsonw.AppendString(jsonw.AppendKey(dst, `"state":`), s.State)
	dst = strconv.AppendInt(jsonw.AppendKey(dst, `"priority":`), int64(s.Priority), 10)
	dst = jsonw.AppendIntField(dst, `"share_weight":`, s.ShareWeight)
	dst = jsonw.AppendIntField(dst, `"hosts_held":`, s.HostsHeld)
	dst = jsonw.AppendIntField(dst, `"queue_position":`, s.QueuePosition)
	if len(s.Labels) > 0 {
		dst = jsonw.AppendMap(jsonw.AppendKey(dst, `"labels":`), s.Labels, jsonw.AppendString)
	}
	dst = jsonw.AppendIntField(dst, `"reschedules":`, s.Reschedules)
	if len(s.FailedHosts) > 0 {
		dst = jsonw.AppendList(jsonw.AppendKey(dst, `"failed_hosts":`), s.FailedHosts, jsonw.AppendString)
	}
	dst = jsonw.AppendTrueField(dst, `"recovered":`, s.Recovered)
	dst = jsonw.AppendTimeField(dst, `"deadline":`, s.Deadline)
	dst = jsonw.AppendTime(jsonw.AppendKey(dst, `"submitted_at":`), s.SubmittedAt)
	dst = jsonw.AppendTimeField(dst, `"started_at":`, s.StartedAt)
	dst = jsonw.AppendTimeField(dst, `"finished_at":`, s.FinishedAt)
	dst = jsonw.AppendStringField(dst, `"error":`, s.Error)
	if s.Timings != nil {
		dst = s.Timings.AppendJSON(jsonw.AppendKey(dst, `"timings":`))
	}
	return append(dst, '}')
}

// AppendJSON appends the timings block as a JSON object. Every field is
// optional, so the block of a job that has crossed no boundary is {}.
func (t JobTimings) AppendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	dst = jsonw.AppendTimeField(dst, `"submitted_at":`, t.SubmittedAt)
	dst = jsonw.AppendTimeField(dst, `"admitted_at":`, t.AdmittedAt)
	dst = jsonw.AppendTimeField(dst, `"scheduled_at":`, t.ScheduledAt)
	dst = jsonw.AppendTimeField(dst, `"dispatched_at":`, t.DispatchedAt)
	dst = jsonw.AppendTimeField(dst, `"running_at":`, t.RunningAt)
	dst = jsonw.AppendTimeField(dst, `"finished_at":`, t.FinishedAt)
	dst = jsonw.AppendFloatField(dst, `"submit_wait_seconds":`, t.SubmitWaitSeconds)
	dst = jsonw.AppendFloatField(dst, `"queue_wait_seconds":`, t.QueueWaitSeconds)
	dst = jsonw.AppendFloatField(dst, `"dispatch_wait_seconds":`, t.DispatchWaitSeconds)
	dst = jsonw.AppendFloatField(dst, `"run_seconds":`, t.RunSeconds)
	dst = jsonw.AppendFloatField(dst, `"total_seconds":`, t.TotalSeconds)
	return append(dst, '}')
}
