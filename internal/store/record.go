// Package store is the durable control plane behind vdce.Config.StoreDir:
// an append-only, length-prefixed + CRC'd record log with group-committed
// fsync, periodic compacted snapshots, and startup replay. It persists the
// three state families a server restart would otherwise forget — the job
// lifecycle (submits, transitions, terminal states), per-owner fair-share
// weights and quota caps, and the task-performance measurement history —
// plus the event broker's high-water cursor, so SSE resume cursors from a
// previous incarnation are detected instead of silently replayed.
//
// Layout of a store directory:
//
//	wal-00000003.log    append-only record segments (internal/frame frames)
//	snap-00000003.json  compacted snapshot of everything before segment 3
//
// A job's application flow graph is interned: written once, as a graph
// record (and a row of the snapshot's graphs table), and cited by number
// from every job submitted with the same bytes.
//
// Recovery loads the highest parseable snapshot, then replays every
// segment numbered at or above it in order. A torn final record (the
// crash window of an in-flight group commit) is truncated silently;
// corruption anywhere before the tail surfaces as a *CorruptError.
package store

import "fmt"

// CorruptError is the typed mid-log corruption report: a record whose
// declared length is impossible or whose checksum does not match, with
// more valid bytes after it ruled out. Recovery refuses to guess past
// it — the operator decides whether to restore or discard.
type CorruptError struct {
	// Path is the segment file.
	Path string
	// Offset is the byte offset of the corrupt frame within it.
	Offset int64
	// Reason says what failed: "length", "checksum", "payload" or
	// "truncated mid-log".
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: corrupt record in %s at offset %d (%s)", e.Path, e.Offset, e.Reason)
}
