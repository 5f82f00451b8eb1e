package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"vdce"
	"vdce/internal/afg"
	"vdce/internal/jobsapi"
	"vdce/internal/services"
	"vdce/internal/store"
	"vdce/internal/tasklib"
	"vdce/internal/workload"
)

// timeMedian calls fn once to warm up, then reps more times, and
// returns the median duration of one call.
func timeMedian(reps int, fn func() error) (time.Duration, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	times := make([]float64, reps)
	for i := range times {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		times[i] = float64(time.Since(t0))
	}
	return time.Duration(median(times)), nil
}

// runProbes times each module's public functions in isolation, on a
// fresh idle environment and fixed inputs drawn from the seed, and adds
// the per-layer metrics to m. They are the per-layer floor the traced
// window's means are read against. The store, editor and obs probes run
// only where those layers do work: on the server workload.
func runProbes(ctx context.Context, cfg runConfig, d driver, m map[string]metric) error {
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	us := func(d time.Duration) float64 { return d.Seconds() * 1e6 }
	sp, _ := specByName("c3i-stream")

	// vdce: construction.
	newTime, err := timeMedian(5, func() error {
		env, err := vdce.New(sp.envConfig())
		if err == nil {
			env.Close()
		}
		return err
	})
	if err != nil {
		return err
	}
	set("vdce.new_ms", ms(newTime), "ms")

	env, err := vdce.New(sp.envConfig())
	if err != nil {
		return err
	}
	defer env.Close()
	c3i, err := c3iGraphs(16, cfg.seed)
	if err != nil {
		return err
	}
	les, err := lesGraphs(8, 160, cfg.seed)
	if err != nil {
		return err
	}

	// core: placement quality first, while no execution has fed the
	// performance history — a count that must repeat exactly per seed.
	var predicted time.Duration
	for _, g := range append(append([]*afg.Graph{}, c3i...), les...) {
		table, err := env.Schedule(g, 2)
		if err != nil {
			return err
		}
		predicted += table.TotalPredicted()
	}
	set("core.predicted_total_ms", ms(predicted), "ms")

	schedule := func(g *afg.Graph, k, reps int) (time.Duration, error) {
		return timeMedian(reps, func() error { _, err := env.Schedule(g, k); return err })
	}
	t, err := schedule(c3i[0], 2, 200)
	if err != nil {
		return err
	}
	set("core.schedule_c3i_us", us(t), "us")
	if t, err = schedule(les[0], 2, 200); err != nil {
		return err
	}
	set("core.schedule_les_us", us(t), "us")
	layered, err := workload.Layered(workload.Params{Tasks: 200, CCR: 1, Seed: cfg.seed})
	if err != nil {
		return err
	}
	for _, site := range env.TB.Sites {
		hosts := make([]string, len(site.Hosts))
		for i, h := range site.Hosts {
			hosts[i] = h.Name
		}
		if err := layered.Install(site.Repo, hosts); err != nil {
			return err
		}
	}
	if t, err = schedule(layered.G, 3, 10); err != nil {
		return err
	}
	set("core.schedule_layered200_ms", ms(t), "ms")

	// afg: the editor's wire decode and the scheduler's level pass.
	wire, err := c3i[0].EncodeJSON()
	if err != nil {
		return err
	}
	if t, err = timeMedian(200, func() error { _, err := afg.DecodeJSON(wire); return err }); err != nil {
		return err
	}
	set("afg.decode_us", us(t), "us")
	if t, err = timeMedian(50, func() error { _, err := layered.G.Levels(layered.CostFunc()); return err }); err != nil {
		return err
	}
	set("afg.levels_us", us(t), "us")

	// tasklib: the compute floor and the codec.
	var c3iRef, lesRef map[afg.TaskID][]tasklib.Value
	if t, err = timeMedian(50, func() (err error) { c3iRef, err = tasklib.RunLocal(c3i[0], env.Registry); return }); err != nil {
		return err
	}
	set("tasklib.runlocal_c3i_ms", ms(t), "ms")
	if t, err = timeMedian(10, func() (err error) { lesRef, err = tasklib.RunLocal(les[0], env.Registry); return }); err != nil {
		return err
	}
	set("tasklib.runlocal_les_ms", ms(t), "ms")
	codec := func(v tasklib.Value, reps int) (time.Duration, int, error) {
		var size int
		t, err := timeMedian(reps, func() error {
			data, err := tasklib.EncodeValue(v)
			if err != nil {
				return err
			}
			size = len(data)
			_, err = tasklib.DecodeValue(data)
			return err
		})
		return t, size, err
	}
	// Task 0 is a Sensor_Feed (a track list) and Matrix_Generate (the
	// n*n matrix) respectively.
	if t, _, err = codec(c3iRef[0][0], 500); err != nil {
		return err
	}
	set("tasklib.codec_msg_us", us(t), "us")
	t, size, err := codec(lesRef[0][0], 20)
	if err != nil {
		return err
	}
	set("tasklib.codec_mb_per_s", float64(size)/1e6/t.Seconds(), "MB/s")

	// exec: one application on a pre-made table, nothing else running.
	execute := func(g *afg.Graph, reps int) (time.Duration, error) {
		table, err := env.Schedule(g, 2)
		if err != nil {
			return 0, err
		}
		return timeMedian(reps, func() error { _, err := env.Engine.Execute(ctx, g, table); return err })
	}
	if t, err = execute(c3i[0], 50); err != nil {
		return err
	}
	set("exec.execute_c3i_ms", ms(t), "ms")
	if t, err = execute(les[0], 10); err != nil {
		return err
	}
	set("exec.execute_les_ms", ms(t), "ms")

	probeBoard(set)
	probeBroker(set)

	// The store, editor, HTTP listing and scrape rows stay zero where
	// those layers do no work.
	for name, unit := range map[string]string{
		"store.append_us": "us", "store.sync_ms": "ms", "store.bytes_per_job": "B", "store.recover_10k_ms": "ms",
		"editor.import_ms": "ms", "jobsapi.list_http_ms": "ms", "obs.scrape_ms": "ms",
	} {
		set(name, 0, unit)
	}
	if sd, ok := d.(*serverDriver); ok {
		if err := probeStore(cfg.outDir, c3i[0], set); err != nil {
			return err
		}
		set("editor.import_ms", mean(sd.proc.importMS), "ms")
		set("jobsapi.list_http_ms", mean(sd.pageMS), "ms")
		if t, err = timeMedian(5, func() error { _, err := sd.scrape(ctx); return err }); err != nil {
			return err
		}
		set("obs.scrape_ms", ms(t), "ms")
	}
	return nil
}

// boardRows is the board size the services probes run at: the churn
// workload's retention.
const boardRows = 8192

// probeBoard times services.JobBoard publish and read paths at
// boardRows rows from 64 owners, the listing both on a quiet board and
// beside a writer that keeps invalidating shard snapshots.
func probeBoard(set func(string, float64, string)) {
	board := services.NewJobBoard()
	base := time.Now()
	row := func(i int, state string) services.JobStatus {
		return services.JobStatus{
			ID: fmt.Sprintf("job-%d", i), Owner: ownerName(i % 64), State: state,
			ShareWeight: ownerWeight(i % 64), SubmittedAt: base.Add(time.Duration(i) * time.Microsecond),
		}
	}
	for i := 0; i < boardRows; i++ {
		board.Update(row(i, services.JobStateQueued))
	}
	t0 := time.Now()
	for i := 0; i < boardRows; i++ {
		board.Update(row(i, services.JobStateRunning))
	}
	set("services.board_update_us", time.Since(t0).Seconds()*1e6/boardRows, "us")

	list := func() error { board.List(); return nil }
	t, _ := timeMedian(20, list)
	set("services.board_list_us", t.Seconds()*1e6, "us")

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				board.Update(row(i%boardRows, services.JobStateDone))
			}
		}
	}()
	t, _ = timeMedian(20, list)
	close(stop)
	writer.Wait()
	set("services.board_list_contended_us", t.Seconds()*1e6, "us")

	t, _ = timeMedian(200, func() error { board.OwnerUsages(); return nil })
	set("services.owner_usages_us", t.Seconds()*1e6, "us")
}

// probeBroker times jobsapi.Broker.Publish with 1 and with 32 draining
// subscribers.
func probeBroker(set func(string, float64, string)) {
	status := services.JobStatus{ID: "job-1", App: "probe", Owner: ownerName(0), State: services.JobStateRunning}
	for _, subs := range []int{1, 32} {
		const events = 4096
		b := jobsapi.NewBroker(events)
		var readers sync.WaitGroup
		handles := make([]*jobsapi.Subscriber, subs)
		for i := range handles {
			sub, _, _ := b.Subscribe(0, events, nil)
			handles[i] = sub
			readers.Add(1)
			go func() {
				defer readers.Done()
				for range sub.C {
				}
			}()
		}
		t0 := time.Now()
		for i := 0; i < events; i++ {
			b.Publish(jobsapi.EventState, status)
		}
		per := time.Since(t0).Seconds() * 1e6 / events
		for _, sub := range handles {
			sub.Close()
		}
		readers.Wait()
		set(fmt.Sprintf("jobsapi.broker_publish_%dsub_us", subs), per, "us")
	}
}

// probeStore times internal/store the way the pipeline uses it: one
// JobSubmitted (carrying the graph) and one terminal JobState per job,
// a Sync per hundred jobs, and a cold Open on the resulting 10k-job log.
func probeStore(outDir string, g *afg.Graph, set func(string, float64, string)) error {
	dir, err := os.MkdirTemp(outDir, "store-probe-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	graph, err := json.Marshal(g)
	if err != nil {
		return err
	}
	// Compaction would replace the log with a snapshot mid-probe.
	opts := store.Options{CompactEvery: 1 << 30}
	st, err := store.Open(dir, opts)
	if err != nil {
		return err
	}
	const jobs = 10000
	var appendTime time.Duration
	var syncs []float64
	now := time.Now()
	for i := 0; i < jobs; i++ {
		id := fmt.Sprintf("job-%d", i+1)
		t0 := time.Now()
		err := st.JobSubmitted(store.JobRecord{
			ID: id, Owner: "user_k", Graph: graph, Priority: 5, ShareWeight: 5,
			SubmittedAt: now, State: services.JobStateQueued,
		})
		if err == nil {
			err = st.JobState(id, services.JobStateDone, "", now, now)
		}
		appendTime += time.Since(t0)
		if err == nil && (i+1)%100 == 0 {
			t0 = time.Now()
			err = st.Sync()
			syncs = append(syncs, time.Since(t0).Seconds()*1e3)
		}
		if err != nil {
			_ = st.Abandon()
			return err
		}
	}
	// Abandon, not Close: Close compacts, and recovery must replay the
	// log itself.
	if err := st.Abandon(); err != nil {
		return err
	}
	var bytes int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			bytes += info.Size()
		}
	}
	set("store.append_us", appendTime.Seconds()*1e6/jobs, "us")
	set("store.sync_ms", median(syncs), "ms")
	set("store.bytes_per_job", float64(bytes)/jobs, "B")

	t0 := time.Now()
	st, err = store.Open(dir, opts)
	if err != nil {
		return err
	}
	set("store.recover_10k_ms", time.Since(t0).Seconds()*1e3, "ms")
	if n := len(st.Recovered().Jobs); n != jobs {
		_ = st.Abandon()
		return fmt.Errorf("store probe: recovered %d of %d jobs", n, jobs)
	}
	return st.Abandon()
}
