package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Script op kinds. A suspended proc runs every op in its steps, sleeps
// and yields with TrySleepUntil and TryYield; a sleep or yield with an
// odd argument hands it back to its coroutine instead.
const (
	opCharge = iota
	opWait
	opSignal
	opBroadcast
	opBarrier
	opSleep
	opYield
)

// opTable maps a script byte to an op kind. Waits are rare and signals
// common, so that most scripts do not end in a deadlock.
var opTable = [...]int{opCharge, opCharge, opCharge, opCharge, opCharge, opWait,
	opSignal, opSignal, opBroadcast, opBroadcast, opBarrier, opBarrier,
	opSleep, opSleep, opYield, opYield}

type scriptOp struct{ kind, arg int }

// script is a random scenario decoded from bytes: procs running op
// lists on a few CPUs, sharing two Conds and one barrier, with an
// optional daemon that charges and sleeps for a while. The daemon ends
// on its own, so that procs stuck on a Cond or the barrier end the run
// as a deadlock instead of leaving it to the daemon forever.
type script struct {
	cpus    int
	quantum Duration
	daemon  bool
	procs   [][]scriptOp
}

func decodeScript(data []byte) script {
	if len(data) < 3 {
		return script{cpus: 1, quantum: DefaultQuantum, procs: make([][]scriptOp, 2)}
	}
	s := script{
		cpus:    1 + int(data[1]%3),
		quantum: Duration(1+data[2]%4) * 25 * Microsecond,
		daemon:  data[0]&0x80 != 0,
		procs:   make([][]scriptOp, 2+int(data[0]%4)),
	}
	for i, b := range data[3:min(len(data), 3+96)] {
		p := i % len(s.procs)
		s.procs[p] = append(s.procs[p], scriptOp{kind: opTable[int(b)%len(opTable)], arg: int(b) / len(opTable)})
	}
	return s
}

// world is the state a script's procs share.
type world struct {
	conds [2]Cond
	bar   *Barrier
}

func (op scriptOp) duration() Duration { return Duration(1+op.arg*9) * Microsecond }

func (op scriptOp) cond(w *world) *Cond { return &w.conds[op.arg%2] }

// runScript runs s with every proc blocking or every proc suspended and
// returns the step log: each op's completion with the time and the proc
// holding control, then Run's error, the final time and each proc's
// state and CPU time.
func runScript(s script, suspend bool) string {
	e := NewEngine(s.cpus)
	e.SetQuantum(s.quantum)
	var log strings.Builder
	done := func(i int) {
		name := "-"
		if p := e.Current(); p != nil {
			name = p.Name()
		}
		fmt.Fprintf(&log, "%d %s op %d\n", e.Now(), name, i)
	}
	w := &world{bar: NewBarrier(len(s.procs))}
	for k, ops := range s.procs {
		run := blockingOps
		if suspend {
			run = suspendedOps
		}
		e.Spawn(fmt.Sprintf("p%d", k), false, func(v *Env) { run(v, ops, w, done) })
	}
	if s.daemon {
		e.Spawn("daemon", true, func(v *Env) {
			for range 40 {
				v.Charge(30 * Microsecond)
				v.Sleep(50 * Microsecond)
			}
		})
	}
	err := e.Run()
	fmt.Fprintf(&log, "err=%v now=%d\n", err, e.Now())
	for _, p := range e.DebugProcs() {
		fmt.Fprintln(&log, p)
	}
	return log.String()
}

// blockingOps runs ops with the blocking calls.
func blockingOps(v *Env, ops []scriptOp, w *world, done func(int)) {
	for i, op := range ops {
		switch op.kind {
		case opCharge:
			v.Charge(op.duration())
		case opWait:
			v.Wait(op.cond(w))
		case opSignal:
			op.cond(w).Signal(v.Engine())
		case opBroadcast:
			op.cond(w).Broadcast(v.Engine())
		case opBarrier:
			w.bar.Await(v)
		case opSleep:
			v.Sleep(op.duration())
		case opYield:
			v.Yield()
		}
		done(i)
	}
}

// suspendedOps runs the same ops as a suspended proc: each in a step,
// except that a sleep or yield with an odd argument runs on the
// coroutine.
func suspendedOps(v *Env, ops []scriptOp, w *world, done func(int)) {
	pc := 0          // next op to start
	parked := false  // ops[pc-1] parked the proc and completes on its continuation
	arrived := false // ops[pc-1] is a barrier arrival not yet passed
	round := 0       // the barrier round joined
	step := func() bool {
		for {
			if arrived {
				if !w.bar.Passed(v, round) {
					return true
				}
				arrived = false
			}
			if parked {
				parked = false
				done(pc - 1)
			}
			if pc == len(ops) {
				return false
			}
			op := ops[pc]
			if (op.kind == opSleep || op.kind == opYield) && op.arg%2 == 1 {
				return false
			}
			pc++
			switch op.kind {
			case opCharge:
				if !v.TryCharge(op.duration()) {
					parked = true
					return true
				}
			case opWait:
				v.TryWait(op.cond(w))
				parked = true
				return true
			case opSignal:
				op.cond(w).Signal(v.Engine())
			case opBroadcast:
				op.cond(w).Broadcast(v.Engine())
			case opBarrier:
				round = w.bar.Arrive(v.Engine())
				arrived, parked = true, true
				continue
			case opSleep:
				if !v.TrySleepUntil(v.Now() + Time(op.duration())) {
					parked = true
					return true
				}
			case opYield:
				v.TryYield()
				parked = true
				return true
			}
			done(pc - 1)
		}
	}
	for {
		if step() {
			v.Suspend(step)
		}
		if pc == len(ops) {
			return
		}
		if ops[pc].kind == opSleep {
			v.Sleep(ops[pc].duration())
		} else {
			v.Yield()
		}
		pc++
		done(pc - 1)
	}
}

// FuzzSuspendedMatchesBlocking runs random scripts of charges, Cond waits
// and signals, barriers, sleeps and yields twice, once with blocking
// calls and once as suspended procs, and requires identical step logs,
// deadlocks included.
func FuzzSuspendedMatchesBlocking(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x83, 1, 2, 0, 8, 16, 1, 3, 4, 5, 6, 7, 0, 0, 0, 4, 4, 4, 4, 4})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 4, 4, 4, 4, 4, 4, 1, 2, 9, 10, 17, 18, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decodeScript(data)
		if got, want := runScript(s, true), runScript(s, false); got != want {
			t.Fatalf("suspended run differs from blocking run:\n--- suspended\n%s--- blocking\n%s", got, want)
		}
	})
}

// TestSuspendedMatchesBlockingRandom is the fuzz check over a fixed set
// of random scripts, so a plain `go test` covers it.
func TestSuspendedMatchesBlockingRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	completed := 0
	for n := 0; n < 300; n++ {
		data := make([]byte, 3+rng.Intn(96))
		rng.Read(data)
		s := decodeScript(data)
		got, want := runScript(s, true), runScript(s, false)
		if got != want {
			t.Fatalf("script %x: suspended run differs from blocking run:\n--- suspended\n%s--- blocking\n%s", data, got, want)
		}
		if strings.Contains(got, "err=<nil>") {
			completed++
		}
	}
	if completed < 30 {
		t.Fatalf("only %d of 300 scripts ran to completion", completed)
	}
}
