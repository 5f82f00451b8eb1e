package vdce

// Owner-scaling benchmarks for the admission rewrite (ISSUE 10): pop
// cost as the owner population grows from 1 to 10k, measured for both
// the eligible-owner index (the shipping arbiter) and the retained
// linear-scan reference (the pre-index baseline). CI runs these at
// -benchtime=1x as a smoke; EXPERIMENTS.md records the curve.

import (
	"fmt"
	"testing"
	"time"
)

// benchPopOwners measures one fairly-arbitrated pop with `owners`
// backlogged owners, refilling the queue outside the timer whenever it
// drains. Jobs are prebuilt and reused: push reads only the submission
// fields, so a refill costs pushes, not allocations.
func benchPopOwners(b *testing.B, owners int, linear bool) {
	const perOwner = 4
	base := time.Unix(30000, 0)
	jobs := make([]*jobRecord, 0, owners*perOwner)
	for o := 0; o < owners; o++ {
		owner := fmt.Sprintf("bench-%d", o)
		weight := 1 + o%4
		for k := 0; k < perOwner; k++ {
			jobs = append(jobs, mkAdmitJob(fmt.Sprintf("b%d-%d", o, k), owner, k%3, weight,
				base.Add(time.Duration(o*perOwner+k)*time.Microsecond)))
		}
	}
	var q *admitQueue
	remaining := 0
	refill := func() {
		q = newAdmitQueue(time.Second, QuotaConfig{})
		for _, j := range jobs {
			q.push(j)
		}
		remaining = len(jobs)
	}
	refill()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if remaining == 0 {
			b.StopTimer()
			refill()
			b.StartTimer()
		}
		var j *jobRecord
		if linear {
			j = q.popLinear()
		} else {
			j = q.pop()
		}
		if j == nil {
			b.Fatal("pop returned nil with a backlogged queue")
		}
		remaining--
	}
}

// BenchmarkAdmission10kOwners is the acceptance curve: indexed pop cost
// must stay near-flat in owner count while the linear baseline grows
// with it (>= 10x apart at 10k owners).
func BenchmarkAdmission10kOwners(b *testing.B) {
	for _, owners := range []int{1, 8, 100, 1000, 10000} {
		b.Run(fmt.Sprintf("owners=%d/indexed", owners), func(b *testing.B) {
			benchPopOwners(b, owners, false)
		})
		b.Run(fmt.Sprintf("owners=%d/linear", owners), func(b *testing.B) {
			benchPopOwners(b, owners, true)
		})
	}
}

// BenchmarkAdmissionCancelStorm measures one cancel against a deep
// 10k-job, 1k-owner backlog — the satellite-1 hot path, O(log backlog)
// from the record's own slot.
func BenchmarkAdmissionCancelStorm(b *testing.B) {
	const (
		jobsN  = 10_000
		owners = 1_000
	)
	base := time.Unix(31000, 0)
	jobs := make([]*jobRecord, jobsN)
	for i := range jobs {
		jobs[i] = mkAdmitJob(fmt.Sprintf("c%d", i), fmt.Sprintf("storm-%d", i%owners), i%5, 1+i%3,
			base.Add(time.Duration(i)*time.Microsecond))
	}
	var q *admitQueue
	remaining := 0
	refill := func() {
		q = newAdmitQueue(time.Second, QuotaConfig{})
		for _, j := range jobs {
			q.push(j)
		}
		remaining = len(jobs)
	}
	refill()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if remaining == 0 {
			b.StopTimer()
			refill()
			b.StartTimer()
		}
		remaining--
		if !q.remove(jobs[remaining]) {
			b.Fatalf("remove(%q) missed a queued job", jobs[remaining].ID)
		}
	}
}
