package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dlsbl/internal/agent"
	"dlsbl/internal/bus"
	"dlsbl/internal/dlt"
	"dlsbl/internal/obs"
	"dlsbl/internal/protocol"
	"dlsbl/internal/session"
)

func faultPlan(p float64) *bus.FaultPlan {
	return &bus.FaultPlan{Seed: 42, Drop: p, Duplicate: p / 2}
}

func equalF64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBatchMatchesSessionRun pins the service's core contract: a batch of
// jobs against one pool — including a deviant round and the ensuing ban —
// produces per-round payments, fines and utilities BIT-identical to a
// sequential session.Run of the same jobs, even though the pool reuses
// warm keys the direct session never sees.
func TestBatchMatchesSessionRun(t *testing.T) {
	w := []float64{1, 1.5, 2, 2.5}
	srv := New(Config{Workers: 4, QueueDepth: 64})
	defer srv.Close()
	if _, err := srv.CreatePool(PoolSpec{Name: "p", TrueW: w, Policy: "ban-deviants"}); err != nil {
		t.Fatal(err)
	}

	specs := make([]JobSpec, 6)
	jobs := make([]session.Job, 6)
	for i := range specs {
		specs[i] = JobSpec{Z: 0.2, Seed: int64(i + 1)}
		jobs[i] = session.Job{Z: 0.2, Seed: int64(i + 1)}
	}
	specs[1].Behaviors = []string{"", "payment-cheat-2x"}
	jobs[1].Behaviors = []agent.Behavior{{}, agent.PaymentCheat}

	tasks, err := srv.Submit("p", specs, nil)
	if err != nil {
		t.Fatal(err)
	}

	ref := &session.Session{Network: dlt.NCPFE, TrueW: w, Policy: session.BanDeviants}
	rep, err := ref.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}

	for i, task := range tasks {
		res := task.Wait()
		if res.Error != "" {
			t.Fatalf("job %d: %s", i, res.Error)
		}
		if res.Round != i {
			t.Fatalf("job %d ran as round %d", i, res.Round)
		}
		out := rep.Rounds[i]
		if !equalF64(res.Payments, out.Payments) {
			t.Errorf("round %d payments = %v, session.Run got %v", i, res.Payments, out.Payments)
		}
		if !equalF64(res.Fines, out.Fines) {
			t.Errorf("round %d fines = %v, session.Run got %v", i, res.Fines, out.Fines)
		}
		if !equalF64(res.Utilities, out.Utilities) {
			t.Errorf("round %d utilities = %v, session.Run got %v", i, res.Utilities, out.Utilities)
		}
	}
	p, _ := srv.Pool("p")
	snap := p.Snapshot()
	if len(snap.Banned) != 1 || snap.Banned[0] != "P2" {
		t.Fatalf("banned = %v, want [P2]", snap.Banned)
	}
	if !equalF64(snap.CumulativeUtility, rep.CumulativeUtility) {
		t.Fatalf("cumulative utility = %v, session.Run got %v", snap.CumulativeUtility, rep.CumulativeUtility)
	}
	if want := len(w) + 1; snap.WarmKeys != want {
		t.Fatalf("warm keys = %d, want %d (m processors + referee)", snap.WarmKeys, want)
	}
}

// TestConcurrentSameSubmissionsSerialize hammers one pool from many
// goroutines. Every job must run (rounds counter = total), and — the
// serialization guarantee — every job's payments must be bit-identical to
// a direct cold protocol.Run with the same seed, which could not hold if
// two rounds interleaved inside the pool's session state.
func TestConcurrentSameSubmissionsSerialize(t *testing.T) {
	w := []float64{1, 2, 3, 4}
	srv := New(Config{Workers: 4, QueueDepth: 256})
	defer srv.Close()
	if _, err := srv.CreatePool(PoolSpec{Name: "p", TrueW: w}); err != nil {
		t.Fatal(err)
	}

	const n = 40
	want := make([][]float64, n)
	for i := 0; i < n; i++ {
		out, err := protocol.Run(protocol.Config{Network: dlt.NCPFE, Z: 0.2, TrueW: w, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out.Payments
	}

	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tasks, err := srv.Submit("p", []JobSpec{{Z: 0.2, Seed: int64(i + 1)}}, nil)
			if err != nil {
				errs <- err
				return
			}
			res := tasks[0].Wait()
			if res.Error != "" {
				errs <- errors.New(res.Error)
				return
			}
			if !equalF64(res.Payments, want[i]) {
				errs <- fmt.Errorf("seed %d: payments %v, direct run got %v", i+1, res.Payments, want[i])
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	p, _ := srv.Pool("p")
	if p.Snapshot().Rounds != n {
		t.Fatalf("pool played %d rounds, want %d", p.Snapshot().Rounds, n)
	}
}

// overlapRendezvous returns a testHookDuringRun that blocks every runner
// inside the worker-slot section until n of them are there at once, then
// releases everyone (later arrivals pass straight through). It pins the
// cross-pool concurrency contract deterministically: the running-jobs
// gauge provably reaches n, however fast individual rounds are.
func overlapRendezvous(n int) func(*Pool, *Task) {
	var mu sync.Mutex
	met := make(chan struct{})
	count := 0
	return func(*Pool, *Task) {
		mu.Lock()
		count++
		if count == n {
			close(met)
		}
		mu.Unlock()
		<-met
	}
}

// TestDisjointPoolsOverlap checks the other half of the concurrency
// contract: rounds against distinct pools run in parallel (peak running
// protocol executions > 1), while each pool's own rounds stay ordered.
func TestDisjointPoolsOverlap(t *testing.T) {
	srv := New(Config{Workers: 8, QueueDepth: 256})
	defer srv.Close()
	srv.testHookDuringRun = overlapRendezvous(2)
	const pools = 8
	for i := 0; i < pools; i++ {
		spec := PoolSpec{Name: fmt.Sprintf("pool%d", i), TrueW: []float64{1, 1.5, 2, 2.5, 3, 3.5}}
		if _, err := srv.CreatePool(spec); err != nil {
			t.Fatal(err)
		}
	}
	var all []*Task
	for i := 0; i < pools; i++ {
		specs := make([]JobSpec, 10)
		for j := range specs {
			specs[j] = JobSpec{Z: 0.2, Seed: int64(100*i + j + 1)}
		}
		tasks, err := srv.Submit(fmt.Sprintf("pool%d", i), specs, nil)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, tasks...)
	}
	for _, task := range all {
		if res := task.Wait(); res.Error != "" {
			t.Fatal(res.Error)
		}
	}
	m := srv.Metrics()
	if m.Jobs.PeakRun < 2 {
		t.Fatalf("peak concurrent runs = %d; disjoint pools never overlapped", m.Jobs.PeakRun)
	}
	for i := 0; i < pools; i++ {
		p, _ := srv.Pool(fmt.Sprintf("pool%d", i))
		if p.Snapshot().Rounds != 10 {
			t.Fatalf("pool%d played %d rounds, want 10", i, p.Snapshot().Rounds)
		}
	}
}

// TestQueueFullBackpressure pins the admission contract deterministically:
// with the single runner parked via the test hook, a queue of depth 2
// admits exactly two more jobs and refuses the next whole batch with
// ErrQueueFull, leaving the queue untouched (all-or-nothing).
func TestQueueFullBackpressure(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 2})
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.testHookBeforeRun = func(p *Pool, task *Task) {
		once.Do(func() {
			close(started)
			<-release
		})
	}
	if _, err := srv.CreatePool(PoolSpec{Name: "p", TrueW: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}

	first, err := srv.Submit("p", []JobSpec{{Z: 0.2, Seed: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-started // runner holds job 1; queue is empty again

	queued, err := srv.Submit("p", []JobSpec{{Z: 0.2, Seed: 2}, {Z: 0.2, Seed: 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Queued() != 2 {
		t.Fatalf("queued = %d, want 2", srv.Queued())
	}
	if _, err := srv.Submit("p", []JobSpec{{Z: 0.2, Seed: 4}}, nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit error = %v, want ErrQueueFull", err)
	}
	// A too-large batch is refused whole even with one slot free.
	if srv.Queued() != 2 {
		t.Fatalf("rejected submission mutated the queue: %d", srv.Queued())
	}
	m := srv.Metrics()
	if m.Jobs.Rejected != 1 {
		t.Fatalf("rejected counter = %d, want 1", m.Jobs.Rejected)
	}

	close(release)
	for _, task := range append(first, queued...) {
		if res := task.Wait(); res.Error != "" {
			t.Fatal(res.Error)
		}
	}
	srv.Close()
}

// TestAdmissionDuringRound: a running round holds no lock that admission,
// pool snapshots or /metrics take. With a round held inside its Step,
// Submit admits a job at once, Queued counts it, and Snapshot and
// Metrics return, reporting the state as of the last settled round.
func TestAdmissionDuringRound(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 8})
	inStep := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.testHookInStep = func(p *Pool, task *Task) {
		once.Do(func() {
			close(inStep)
			<-release
		})
	}
	p, err := srv.CreatePool(PoolSpec{Name: "p", TrueW: []float64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	first, err := srv.Submit("p", []JobSpec{{Z: 0.2, Seed: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-inStep

	type probe struct {
		tasks  []*Task
		err    error
		queued int
		snap   PoolSnapshot
		met    MetricsSnapshot
	}
	done := make(chan probe, 1)
	go func() {
		var pr probe
		pr.tasks, pr.err = srv.Submit("p", []JobSpec{{Z: 0.2, Seed: 2}}, nil)
		pr.queued = srv.Queued()
		pr.snap = p.Snapshot()
		pr.met = srv.Metrics()
		done <- pr
	}()
	var pr probe
	select {
	case pr = <-done:
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("Submit, Snapshot or Metrics waited for the running round")
	}
	close(release)
	if pr.err != nil {
		t.Fatal(pr.err)
	}
	if pr.queued != 1 || pr.snap.Queued != 1 || pr.met.Jobs.Queued != 1 {
		t.Errorf("queued %d, snapshot %d, metrics %d during the round, want 1 each",
			pr.queued, pr.snap.Queued, pr.met.Jobs.Queued)
	}
	if pr.snap.Rounds != 0 {
		t.Errorf("snapshot reports %d rounds while the first is running, want 0", pr.snap.Rounds)
	}
	for _, task := range append(first, pr.tasks...) {
		if res := task.Wait(); res.Error != "" {
			t.Fatal(res.Error)
		}
	}
	if got := p.Snapshot().Rounds; got != 2 {
		t.Errorf("snapshot reports %d rounds after both settled, want 2", got)
	}
	srv.Close()
}

// TestSnapshotsDuringRounds scrapes a pool while its runner plays rounds:
// every snapshot reads the state the runner last published, so the
// round count never goes backwards and ends at the number of jobs. Run
// under -race it checks the publication is synchronized.
func TestSnapshotsDuringRounds(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 32})
	defer srv.Close()
	p, err := srv.CreatePool(PoolSpec{Name: "p", TrueW: []float64{1, 1.5, 2, 2.5}})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]JobSpec, 20)
	for i := range specs {
		specs[i] = JobSpec{Z: 0.2, Seed: int64(i + 1)}
	}
	tasks, err := srv.Submit("p", specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	scraped := make(chan int)
	go func() {
		last, n := 0, 0
		for {
			select {
			case <-stop:
				scraped <- n
				return
			default:
			}
			snap := p.Snapshot()
			if n%2 == 1 {
				snap = srv.Metrics().Pools[0]
			}
			if snap.Rounds < last {
				t.Errorf("rounds went from %d back to %d", last, snap.Rounds)
			}
			if len(snap.CumulativeUtility) != 4 {
				t.Errorf("snapshot carries %d utilities, want 4", len(snap.CumulativeUtility))
			}
			last = snap.Rounds
			n++
		}
	}()
	for _, task := range tasks {
		if res := task.Wait(); res.Error != "" {
			t.Fatal(res.Error)
		}
	}
	close(stop)
	if n := <-scraped; n == 0 {
		t.Error("no snapshot taken while the rounds ran")
	}
	if got := p.Snapshot().Rounds; got != len(specs) {
		t.Errorf("rounds = %d, want %d", got, len(specs))
	}
}

// TestFramerJobBesideEviction: a job whose spec names a framer and
// marks another member unresponsive completes with the framer fined. The
// runner has no panic boundary, so a panic in such a round would take
// the whole server down.
func TestFramerJobBesideEviction(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	if _, err := srv.CreatePool(PoolSpec{Name: "p", TrueW: []float64{1, 1.5, 2, 2.5, 3}}); err != nil {
		t.Fatal(err)
	}
	tasks, err := srv.Submit("p", []JobSpec{{
		Z: 0.2, Seed: 31,
		Behaviors: []string{"", "", "", "", agent.Framer.Name},
		Faults:    &bus.FaultPlan{Seed: 5, Unresponsive: []string{"P2"}},
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := tasks[0].Wait()
	if res.Error != "" || !res.Completed {
		t.Fatalf("completed %v, error %q", res.Completed, res.Error)
	}
	if len(res.Fines) != 5 || res.Fines[4] <= 0 {
		t.Errorf("fines %v, want the framer P5 fined", res.Fines)
	}
}

// TestCloseDrains pins graceful shutdown: jobs admitted before Close all
// deliver results, and submissions after Close fail with ErrClosed.
func TestCloseDrains(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 64})
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.testHookBeforeRun = func(p *Pool, task *Task) {
		once.Do(func() {
			close(started)
			<-release
		})
	}
	if _, err := srv.CreatePool(PoolSpec{Name: "p", TrueW: []float64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	specs := make([]JobSpec, 5)
	for i := range specs {
		specs[i] = JobSpec{Z: 0.2, Seed: int64(i + 1)}
	}
	tasks, err := srv.Submit("p", specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-started // four jobs still queued behind the parked runner

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	close(release)
	<-closed

	for i, task := range tasks {
		select {
		case <-task.Done():
		default:
			t.Fatalf("Close returned with job %d unfinished", i)
		}
		if res := task.Result(); res.Error != "" {
			t.Fatalf("job %d: %s", i, res.Error)
		}
	}
	if m := srv.Metrics(); m.Jobs.Completed != 5 {
		t.Fatalf("completed = %d, want 5", m.Jobs.Completed)
	}
	if _, err := srv.Submit("p", []JobSpec{{Z: 0.2, Seed: 9}}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close submit error = %v, want ErrClosed", err)
	}
	if _, err := srv.CreatePool(PoolSpec{Name: "q", TrueW: []float64{1, 2}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close CreatePool error = %v, want ErrClosed", err)
	}
}

// TestAdmissionValidation: unknown pools, behaviors and artifact names
// fail the whole submission up front.
func TestAdmissionValidation(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	if _, err := srv.CreatePool(PoolSpec{Name: "p", TrueW: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit("ghost", []JobSpec{{Z: 0.2, Seed: 1}}, nil); !errors.Is(err, ErrUnknownPool) {
		t.Fatalf("unknown pool error = %v", err)
	}
	if _, err := srv.Submit("p", []JobSpec{{Z: 0.2, Seed: 1, Behaviors: []string{"time-traveler"}}}, nil); err == nil {
		t.Fatal("unknown behavior admitted")
	}
	if _, err := srv.Submit("p", []JobSpec{{Z: 0.2, Seed: 1}}, []string{"hologram"}); err == nil {
		t.Fatal("unknown artifact admitted")
	}
	if _, err := srv.Submit("p", nil, nil); err == nil {
		t.Fatal("empty job list admitted")
	}
	if _, err := srv.CreatePool(PoolSpec{Name: "p", TrueW: []float64{1, 2}}); err == nil {
		t.Fatal("duplicate pool admitted")
	}
	if _, err := srv.CreatePool(PoolSpec{Name: "bad", TrueW: []float64{1}}); err == nil {
		t.Fatal("one-processor pool admitted")
	}
	if _, err := srv.CreatePool(PoolSpec{Name: "bad", TrueW: []float64{1, 2}, Network: "ring"}); err == nil {
		t.Fatal("unknown network admitted")
	}
	if _, err := srv.CreatePool(PoolSpec{Name: "bad", TrueW: []float64{1, 2}, Policy: "lenient"}); err == nil {
		t.Fatal("unknown policy admitted")
	}
}

// TestFaultyJobThroughService runs a job under a fault plan through the
// pool and checks the transport counters surface in the result.
func TestFaultyJobThroughService(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	if _, err := srv.CreatePool(PoolSpec{Name: "p", TrueW: []float64{1, 1.5, 2, 2.5}}); err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{
		Z: 0.2, Seed: 7,
		Faults: faultPlan(0.2),
		Retry:  &protocol.RetryPolicy{MaxAttempts: 8},
	}
	tasks, err := srv.Submit("p", []JobSpec{spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := tasks[0].Wait()
	if res.Error != "" {
		t.Fatalf("faulty job failed: %s", res.Error)
	}
	if res.Fault == nil || res.Fault.Retransmits == 0 {
		t.Fatalf("fault stats = %+v, want retransmissions recorded", res.Fault)
	}

	// Payments under faults stay bit-identical to the direct run.
	direct, err := protocol.Run(protocol.Config{
		Network: dlt.NCPFE, Z: 0.2, TrueW: []float64{1, 1.5, 2, 2.5}, Seed: 7,
		Faults: faultPlan(0.2), Retry: protocol.RetryPolicy{MaxAttempts: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !equalF64(res.Payments, direct.Payments) {
		t.Fatalf("payments %v, direct faulty run got %v", res.Payments, direct.Payments)
	}
}

// TestMultiloadPoolAmortizesBidding pins the service's amortized-bidding
// surface: a pool bids once, streams bid_reused=true and a round_id for
// every later job, exposes the savings in its snapshot, and still
// produces payments bit-identical to a fresh protocol.Run of each job.
func TestMultiloadPoolAmortizesBidding(t *testing.T) {
	w := []float64{1, 1.5, 2, 2.5}
	srv := New(Config{Workers: 4, QueueDepth: 64})
	defer srv.Close()
	if _, err := srv.CreatePool(PoolSpec{Name: "amortized", TrueW: w}); err != nil {
		t.Fatal(err)
	}

	specs := make([]JobSpec, 5)
	for i := range specs {
		specs[i] = JobSpec{Z: 0.2, Seed: int64(i + 1)}
	}
	tasks, err := srv.Submit("amortized", specs, nil)
	if err != nil {
		t.Fatal(err)
	}

	m := len(w)
	for i, task := range tasks {
		res := task.Wait()
		if res.Error != "" {
			t.Fatalf("job %d: %s", i, res.Error)
		}
		want, err := protocol.Run(protocol.Config{Network: dlt.NCPFE, Z: 0.2, TrueW: w, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if res.BidReused != (i > 0) {
			t.Errorf("job %d: bid_reused = %v, want %v", i, res.BidReused, i > 0)
		}
		if res.RoundID == "" {
			t.Errorf("job %d: result has no round_id", i)
		}
		if !equalF64(res.Payments, want.Payments) {
			t.Errorf("job %d payments diverge: pool %v, protocol.Run %v", i, res.Payments, want.Payments)
		}
		if !equalF64(res.Utilities, want.Utilities) {
			t.Errorf("job %d utilities diverge: pool %v, protocol.Run %v", i, res.Utilities, want.Utilities)
		}
	}

	p, _ := srv.Pool("amortized")
	snap := p.Snapshot()
	if snap.Rebids != 1 || snap.RoundsSinceRebid != len(specs)-1 {
		t.Errorf("snapshot rebids=%d sinceRebid=%d, want 1 and %d", snap.Rebids, snap.RoundsSinceRebid, len(specs)-1)
	}
	// Each of the 4 reuse rounds skips m bid broadcasts (m·m deliveries).
	if want := (len(specs) - 1) * m * m; snap.DeliveriesSaved != want {
		t.Errorf("snapshot deliveries_saved=%d, want %d", snap.DeliveriesSaved, want)
	}
	if snap.MessagesSaved != (len(specs)-1)*m {
		t.Errorf("snapshot messages_saved=%d, want %d", snap.MessagesSaved, (len(specs)-1)*m)
	}
}

// TestMultiloadPoolRebidsAfterBan drives a ban-deviants pool
// through a cheat round and checks the service re-bids exactly once — the
// ban flips the bid profile. Because the ban is a single-member change
// (P2 leaves), that re-bid is an incremental splice, not a full Θ(m²)
// exchange; the pool then settles back into reuse.
func TestMultiloadPoolRebidsAfterBan(t *testing.T) {
	w := []float64{1, 1.5, 2, 2.5}
	srv := New(Config{Workers: 2, QueueDepth: 64})
	defer srv.Close()
	if _, err := srv.CreatePool(PoolSpec{Name: "strict", TrueW: w, Policy: "ban-deviants"}); err != nil {
		t.Fatal(err)
	}

	specs := make([]JobSpec, 5)
	for i := range specs {
		specs[i] = JobSpec{Z: 0.2, Seed: int64(i + 1)}
	}
	specs[1].Behaviors = []string{"", "payment-cheat-2x"}

	tasks, err := srv.Submit("strict", specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Round 0 bids; round 1 reuses (a payment cheat doesn't move the
	// bids); round 2 splices because P2's ban forces it to abstain — a
	// single-member leave; rounds 3-4 reuse the post-ban cache.
	wantReused := []bool{false, true, false, true, true}
	wantSpliced := []bool{false, false, true, false, false}
	for i, task := range tasks {
		res := task.Wait()
		if res.Error != "" {
			t.Fatalf("job %d: %s", i, res.Error)
		}
		if res.BidReused != wantReused[i] {
			t.Errorf("job %d: bid_reused = %v, want %v", i, res.BidReused, wantReused[i])
		}
		if res.BidSpliced != wantSpliced[i] {
			t.Errorf("job %d: bid_spliced = %v, want %v", i, res.BidSpliced, wantSpliced[i])
		}
	}

	p, _ := srv.Pool("strict")
	snap := p.Snapshot()
	if snap.Rebids != 1 || snap.IncrementalRebids != 1 || snap.RoundsSinceRebid != 2 {
		t.Errorf("snapshot rebids=%d incremental=%d sinceRebid=%d, want 1, 1 and 2",
			snap.Rebids, snap.IncrementalRebids, snap.RoundsSinceRebid)
	}
	if snap.VerifyMemoHits == 0 {
		t.Errorf("verify_memo_hits = 0, want > 0 (reuse rounds should hit the pool memo)")
	}
	if got := snap.Banned; len(got) != 1 || got[0] != "P2" {
		t.Errorf("banned = %v, want [P2]", got)
	}
}

// TestMultiloadPoolSurvivesCrashJob: one job whose spec crashes a member
// during Processing must not disable a shared pool. The first job runs the
// full bid exchange and evicts P3 from that round only; P3 stays in the
// pool's bid session, and every later clean job is served from the cache
// with payments bit-identical to a fresh protocol.Run.
func TestMultiloadPoolSurvivesCrashJob(t *testing.T) {
	w := []float64{1, 1.5, 2, 2.5}
	srv := New(Config{Workers: 2, QueueDepth: 64})
	defer srv.Close()
	if _, err := srv.CreatePool(PoolSpec{Name: "hot", TrueW: w}); err != nil {
		t.Fatal(err)
	}
	var crash JobSpec
	if err := json.Unmarshal([]byte(`{"z":0.2,"seed":1,"faults":{"crashes":[{"proc":"P3"}]}}`), &crash); err != nil {
		t.Fatal(err)
	}
	specs := []JobSpec{crash, {Z: 0.2, Seed: 2}, {Z: 0.2, Seed: 3}, {Z: 0.2, Seed: 4}}
	hot, err := srv.Submit("hot", specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		res := hot[i].Wait()
		if res.Error != "" {
			t.Fatalf("job %d: %s", i, res.Error)
		}
		want, err := protocol.Run(protocol.Config{Network: dlt.NCPFE, Z: spec.Z, TrueW: w, Seed: spec.Seed, Faults: spec.Faults})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && (len(res.Evictions) != 1 || res.Evictions[0].Proc != "P3") {
			t.Fatalf("crash job evictions = %+v, want P3", res.Evictions)
		}
		if i > 0 && !res.BidReused {
			t.Errorf("job %d: bid_reused = false, want reuse after the crash job", i)
		}
		if !equalF64(res.Payments, want.Payments) {
			t.Errorf("job %d payments diverge: pool %v, protocol.Run %v", i, res.Payments, want.Payments)
		}
	}
}

// TestPoolServesEveryJobFromBidSession: one pool, created without any
// deprecated field, serves jobs at two bus rates and through a member
// outage from one bid session. Job 1's P3 answers nothing: its reuse
// attempt fails at the meters broadcast and falls back to a full exchange
// under the same round ID, which evicts P3 from that job only. P3's
// return forces a full exchange on job 2, and jobs 3 and 4 reuse the
// bids again, whatever their z. Every job settles bit-identically to a
// fresh protocol.Run, and the pool's sentinel stays clear.
func TestPoolServesEveryJobFromBidSession(t *testing.T) {
	w := []float64{1, 1.5, 2, 2.5}
	srv := New(Config{Workers: 2, QueueDepth: 16})
	defer srv.Close()
	if _, err := srv.CreatePool(PoolSpec{Name: "one", TrueW: w}); err != nil {
		t.Fatal(err)
	}
	specs := []JobSpec{
		{Z: 0.2, Seed: 1},
		{Z: 0.2, Seed: 2, Faults: &bus.FaultPlan{Unresponsive: []string{"P3"}}},
		{Z: 0.3, Seed: 3},
		{Z: 0.3, Seed: 4},
		{Z: 0.2, Seed: 5},
	}
	tasks, err := srv.Submit("one", specs, []string{ArtifactTrace})
	if err != nil {
		t.Fatal(err)
	}
	wantReused := []bool{false, false, false, true, true}
	for i, spec := range specs {
		res := tasks[i].Wait()
		if res.Error != "" {
			t.Fatalf("job %d: %s", i, res.Error)
		}
		want, err := protocol.Run(protocol.Config{Network: dlt.NCPFE, Z: spec.Z, TrueW: w, Seed: spec.Seed, Faults: spec.Faults})
		if err != nil {
			t.Fatal(err)
		}
		if !equalF64(res.Payments, want.Payments) || !equalF64(res.Fines, want.Fines) || !equalF64(res.Utilities, want.Utilities) {
			t.Errorf("job %d: pool settled payments %v fines %v utilities %v, protocol.Run %v %v %v",
				i, res.Payments, res.Fines, res.Utilities, want.Payments, want.Fines, want.Utilities)
		}
		if res.BidReused != wantReused[i] {
			t.Errorf("job %d: bid_reused = %v, want %v", i, res.BidReused, wantReused[i])
		}
		if i == 1 {
			if len(res.Evictions) != 1 || res.Evictions[0].Proc != "P3" || res.Evictions[0].Phase != obs.PhaseBidding {
				t.Errorf("job 1 evictions = %+v, want P3 during bidding", res.Evictions)
			}
			// The trace shows the failed reuse attempt, then the full
			// exchange, both under the job's round ID.
			reuseAt, evictAt := -1, -1
			for k, r := range res.Trace {
				if r.Name == obs.EvBidReused && reuseAt < 0 {
					reuseAt = k
				}
				if r.Name == obs.EvEviction {
					evictAt = k
				}
				if r.Round != "" && r.Round != res.RoundID {
					t.Fatalf("job 1 trace record %d carries round %q, want %q", k, r.Round, res.RoundID)
				}
			}
			if reuseAt < 0 || evictAt < reuseAt {
				t.Errorf("job 1 trace: bid_reused at %d, eviction at %d; want the failed attempt first", reuseAt, evictAt)
			}
		}
		if i == 2 && !(res.Payments[2] > 0) {
			t.Errorf("job 2 pays P3 %v; it missed job 1 only", res.Payments[2])
		}
	}
	p, _ := srv.Pool("one")
	if v := p.Snapshot().SentinelViolations; len(v) != 0 {
		t.Fatalf("sentinel latched: %v", v)
	}
}

// lockedLog is a log sink the runner writes while the test reads.
type lockedLog struct {
	mu  sync.Mutex
	buf strings.Builder
}

// Write appends p under the lock.
func (l *lockedLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

// String returns what has been logged so far.
func (l *lockedLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// TestPanickedJobFailsAlone: a panic inside one job's round fails that
// job alone. Its result carries an internal error, the stack is logged
// at error level and the panic is counted; the pool keeps its bans and
// cumulative utility, drops its bid cache (the next job re-bids, the one
// after reuses), and keeps serving; /healthz stays 200 and the
// goroutine count returns to its baseline.
func TestPanickedJobFailsAlone(t *testing.T) {
	var log lockedLog
	srv := New(Config{Workers: 1, QueueDepth: 8,
		Logger: slog.New(slog.NewTextHandler(&log, nil))})
	defer srv.Close()
	var steps atomic.Int32
	srv.testHookInStep = func(p *Pool, task *Task) {
		if steps.Add(1) == 2 {
			panic("injected fault")
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	p, err := srv.CreatePool(PoolSpec{Name: "p", TrueW: []float64{1, 1.5, 2, 2.5}})
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed int64) JobResult {
		t.Helper()
		tasks, err := srv.Submit("p", []JobSpec{{Z: 0.2, Seed: seed}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return tasks[0].Wait()
	}
	if res := run(1); res.Error != "" || res.BidReused {
		t.Fatalf("first job: error %q, bid_reused %v; want a clean full exchange", res.Error, res.BidReused)
	}
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()
	before := p.Snapshot()

	res := run(2)
	if !strings.HasPrefix(res.Error, "internal error: ") || !strings.Contains(res.Error, "injected fault") {
		t.Fatalf("panicked job's error = %q, want an internal error naming the panic", res.Error)
	}
	after := p.Snapshot()
	if after.Rounds != before.Rounds || !equalF64(after.CumulativeUtility, before.CumulativeUtility) ||
		len(after.Banned) != len(before.Banned) {
		t.Fatalf("the panicked job moved the pool: rounds %d → %d, utility %v → %v, banned %v → %v",
			before.Rounds, after.Rounds, before.CumulativeUtility, after.CumulativeUtility, before.Banned, after.Banned)
	}
	if out := log.String(); !strings.Contains(out, "level=ERROR") || !strings.Contains(out, "job panicked") ||
		!strings.Contains(out, "runtime/debug.Stack") {
		t.Errorf("log lacks the panic and its stack at error level:\n%s", out)
	}

	if res := run(3); res.Error != "" || !res.Completed || res.BidReused {
		t.Fatalf("job after the panic: error %q, completed %v, bid_reused %v; want a full exchange", res.Error, res.Completed, res.BidReused)
	}
	if res := run(4); res.Error != "" || !res.BidReused {
		t.Fatalf("second job after the panic: error %q, bid_reused %v; want a reuse round", res.Error, res.BidReused)
	}
	m := srv.Metrics()
	if m.Jobs.Panics != 1 || m.Jobs.Failed != 1 || m.Jobs.Completed != 3 {
		t.Errorf("jobs: %d panics, %d failed, %d completed; want 1, 1, 3", m.Jobs.Panics, m.Jobs.Failed, m.Jobs.Completed)
	}
	resp, err := client.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "\ndlsbl_job_panics_total 1\n") {
		t.Errorf("exposition lacks dlsbl_job_panics_total 1")
	}
	hr, err := client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d after the panic, want 200", hr.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > baseline {
		t.Errorf("%d goroutines remain, baseline %d", n, baseline)
	}
}

// formatSpy is a log attribute value that records whether a handler
// resolved it, which a handler does only when it formats the record.
type formatSpy struct{ resolved *atomic.Bool }

func (s formatSpy) LogValue() slog.Value {
	s.resolved.Store(true)
	return slog.StringValue("resolved")
}

// TestDefaultLoggerDisabled pins the logger a server gets with a nil
// Config.Logger: disabled at every level, so the runner's and the HTTP
// handler's log lines return before any record is built or formatted.
func TestDefaultLoggerDisabled(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	ctx := context.Background()
	for _, lvl := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError, slog.LevelError + 4} {
		if srv.log.Enabled(ctx, lvl) {
			t.Errorf("default logger enabled at %v", lvl)
		}
	}
	var resolved atomic.Bool
	srv.log.Info("job finished", "spy", formatSpy{&resolved})
	srv.log.With("pool", "hot").WithGroup("g").Error("round panicked", "spy", formatSpy{&resolved})
	if resolved.Load() {
		t.Error("the default logger formatted a record")
	}
}
