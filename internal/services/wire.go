package services

import (
	"math"
	"slices"
	"strconv"
	"time"
	"unicode/utf8"
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
	dst = AppendJSONString(appendKey(dst, `"id":`), s.ID)
	dst = AppendJSONString(appendKey(dst, `"app":`), s.App)
	dst = appendStringField(dst, `"owner":`, s.Owner)
	dst = AppendJSONString(appendKey(dst, `"state":`), s.State)
	dst = strconv.AppendInt(appendKey(dst, `"priority":`), int64(s.Priority), 10)
	dst = appendIntField(dst, `"share_weight":`, s.ShareWeight)
	dst = appendIntField(dst, `"hosts_held":`, s.HostsHeld)
	dst = appendIntField(dst, `"queue_position":`, s.QueuePosition)
	if len(s.Labels) > 0 {
		dst = appendLabels(appendKey(dst, `"labels":`), s.Labels)
	}
	dst = appendIntField(dst, `"reschedules":`, s.Reschedules)
	if len(s.FailedHosts) > 0 {
		dst = appendKey(dst, `"failed_hosts":`)
		for i, h := range s.FailedHosts {
			sep := byte(',')
			if i == 0 {
				sep = '['
			}
			dst = AppendJSONString(append(dst, sep), h)
		}
		dst = append(dst, ']')
	}
	if s.Recovered {
		dst = appendKey(dst, `"recovered":true`)
	}
	dst = appendTimeField(dst, `"deadline":`, s.Deadline)
	dst = appendTime(appendKey(dst, `"submitted_at":`), s.SubmittedAt)
	dst = appendTimeField(dst, `"started_at":`, s.StartedAt)
	dst = appendTimeField(dst, `"finished_at":`, s.FinishedAt)
	dst = appendStringField(dst, `"error":`, s.Error)
	if s.Timings != nil {
		dst = s.Timings.AppendJSON(appendKey(dst, `"timings":`))
	}
	return append(dst, '}')
}

// AppendJSON appends the timings block as a JSON object. Every field is
// optional, so the block of a job that has crossed no boundary is {}.
func (t JobTimings) AppendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	dst = appendTimeField(dst, `"submitted_at":`, t.SubmittedAt)
	dst = appendTimeField(dst, `"admitted_at":`, t.AdmittedAt)
	dst = appendTimeField(dst, `"scheduled_at":`, t.ScheduledAt)
	dst = appendTimeField(dst, `"dispatched_at":`, t.DispatchedAt)
	dst = appendTimeField(dst, `"running_at":`, t.RunningAt)
	dst = appendTimeField(dst, `"finished_at":`, t.FinishedAt)
	dst = appendFloatField(dst, `"submit_wait_seconds":`, t.SubmitWaitSeconds)
	dst = appendFloatField(dst, `"queue_wait_seconds":`, t.QueueWaitSeconds)
	dst = appendFloatField(dst, `"dispatch_wait_seconds":`, t.DispatchWaitSeconds)
	dst = appendFloatField(dst, `"run_seconds":`, t.RunSeconds)
	dst = appendFloatField(dst, `"total_seconds":`, t.TotalSeconds)
	return append(dst, '}')
}

// appendKey appends an object key, preceded by a comma unless it is the
// first one after the opening brace.
func appendKey(dst []byte, key string) []byte {
	if dst[len(dst)-1] != '{' {
		dst = append(dst, ',')
	}
	return append(dst, key...)
}

// appendStringField appends key and v unless v is empty (omitempty).
func appendStringField(dst []byte, key, v string) []byte {
	if v == "" {
		return dst
	}
	return AppendJSONString(appendKey(dst, key), v)
}

// appendIntField appends key and v unless v is zero (omitempty).
func appendIntField(dst []byte, key string, v int) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(appendKey(dst, key), int64(v), 10)
}

// appendTimeField appends key and t unless t is the zero time (omitzero).
func appendTimeField(dst []byte, key string, t time.Time) []byte {
	if t.IsZero() {
		return dst
	}
	return appendTime(appendKey(dst, key), t)
}

// appendTime appends t as time.Time.MarshalJSON renders it. Years
// outside [0, 9999], which MarshalJSON refuses, cannot come off a clock.
func appendTime(dst []byte, t time.Time) []byte {
	dst = append(dst, '"')
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	return append(dst, '"')
}

// appendFloatField appends key and f unless f is zero (omitempty), in
// encoding/json's ES6-style number format. The fields are durations in
// seconds; a non-finite value has no JSON form and is left out too.
func appendFloatField(dst []byte, key string, f float64) []byte {
	if f == 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		return dst
	}
	dst = appendKey(dst, key)
	format := byte('f')
	if abs := math.Abs(f); abs < 1e-6 || abs >= 1e21 {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 is written e-9.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendLabels appends a non-empty label map as an object with its keys
// sorted. The usual handful of keys is sorted on the stack.
func appendLabels(dst []byte, labels map[string]string) []byte {
	var stack [8]string
	keys := stack[:0]
	for k := range labels {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendJSONString(dst, k)
		dst = append(dst, ':')
		dst = AppendJSONString(dst, labels[k])
	}
	return append(dst, '}')
}

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s as a JSON string literal exactly as
// encoding/json writes one with HTML escaping on: ", \ and control
// characters escaped, <, > and & as \u00XX, invalid UTF-8 as \ufffd,
// U+2028 and U+2029 as \u2028 and \u2029.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
