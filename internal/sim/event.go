// Package sim provides a deterministic discrete-event simulation kernel.
//
// It plays the role CSIM-18/MultiSim played in the original study: a
// virtual clock, an event calendar, and seeded random-number streams.
// Events scheduled for the same instant fire in scheduling order, so a
// simulation run is reproducible bit-for-bit given the same seed.
package sim

// Time is simulated time. The broadcast study measures everything in
// microseconds (Ts = 1.5 µs, β = 0.003 µs/flit), so all packages in
// this module treat one Time unit as one microsecond.
type Time = float64

// Action is the body of a scheduled event. It runs with the simulator
// clock set to the event's due time.
type Action func()

// Func is an event body that receives its state explicitly. Hot paths
// schedule a prebuilt (Func, arg) record instead of closing over their
// state: a Func plus an arg already in hand costs no allocation per
// event, where a closure costs one. arg is typically a pointer (the
// worm, the injector) so boxing it into the interface is free too.
// s is the simulator executing the record: the body reads the clock
// and schedules follow-up records through it.
type Func func(s *Simulator, arg any)

// event is a calendar entry: an action record (fn, arg) due at a
// time. seq breaks ties between events due at the same instant so
// execution order is deterministic. Entries are stored by value in
// the calendar's arena, which is reused as events come and go — the
// calendar itself allocates only on capacity growth.
type event struct {
	due Time
	seq uint64
	fn  Func
	arg any
}
