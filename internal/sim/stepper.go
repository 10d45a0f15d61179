package sim

// Stepper drives a resumable step (Env.Suspend) for the blocking call
// built on it. Its cursors live on the heap, each with the continuation
// that steps it, made once and reused, so the blocking call allocates
// nothing whether or not its step parks. A step that hands its cursor on
// through an interface method would move a cursor on the caller's stack
// to the heap on every call; its blocking call runs the step on a
// Stepper cursor from the start (Get, then Suspend if the step parks,
// then Put). Any other blocking call runs its step on a stack cursor and
// only moves it to a Stepper cursor if it parks (Continue). Set Step
// before the first call. A Stepper belongs to one engine's procs.
type Stepper[T any] struct {
	// Step runs the cursor w until it parks the proc, and then reports
	// true, or until it is over.
	Step func(v *Env, w *T) (parked bool)

	free []*Cursor[T]
}

// Cursor is a Stepper's cursor W, with the continuation that steps it.
type Cursor[T any] struct {
	W    T
	v    *Env
	cont func() bool
}

// Get returns a cursor for one call, holding whatever a Put left in W;
// the caller sets W up.
func (s *Stepper[T]) Get() *Cursor[T] {
	if n := len(s.free); n > 0 {
		c := s.free[n-1]
		s.free = s.free[:n-1]
		return c
	}
	c := new(Cursor[T])
	c.cont = func() bool { return s.Step(c.v, &c.W) }
	return c
}

// Put keeps c for a later Get.
func (s *Stepper[T]) Put(c *Cursor[T]) { s.free = append(s.free, c) }

// Continue goes on with a step that parked the proc while running the
// caller's cursor *w: it moves the cursor to the heap, continues the step
// inline (Env.Suspend) until it is over, and copies the cursor back.
func (s *Stepper[T]) Continue(v *Env, w *T) {
	c := s.Get()
	c.W = *w
	s.Suspend(v, c)
	*w = c.W
	s.Put(c)
}

// Suspend continues the step that parked the proc while running c.W
// inline (Env.Suspend) until it is over.
func (s *Stepper[T]) Suspend(v *Env, c *Cursor[T]) {
	c.v = v
	v.Suspend(c.cont)
	c.v = nil
}
