package gpusim

import (
	"time"

	"nexus/internal/simclock"
)

// lane is a FIFO of jobs whose head executes while the lane is running. The
// queue is a power-of-two ring of job values, so a lane allocates only when
// its backlog outgrows the ring, and never holds more than twice its longest
// backlog.
type lane struct {
	q       []job
	head, n int
	running bool // q[head] is executing

	// Per-lane utilization accounting (a partition's BusyTime).
	busy, busySince time.Duration

	// releasing marks the lane to leave its set once it drains; released
	// records that it has.
	releasing, released bool
	part                *Partition // owner of a partition lane
}

// front points at the head job; the pointer is valid until the next push.
func (l *lane) front() *job { return &l.q[l.head] }

func (l *lane) push(j job) {
	if l.n == len(l.q) {
		q := make([]job, max(2, 2*len(l.q)))
		for i := 0; i < l.n; i++ {
			q[i] = l.q[(l.head+i)&(len(l.q)-1)]
		}
		l.q, l.head = q, 0
	}
	l.q[(l.head+l.n)&(len(l.q)-1)] = j
	l.n++
}

func (l *lane) pop() job {
	j := l.q[l.head]
	l.q[l.head] = job{}
	l.head = (l.head + 1) & (len(l.q) - 1)
	l.n--
	return j
}

// laneSet runs the head job of each running lane at rate(k) per unit time,
// where k is the number of running lanes, and keeps one completion timer
// for the head that finishes first. Heads that finish at the same instant
// complete in submission order.
type laneSet struct {
	dev  *Device
	rate func(k int) float64
	// retime re-arms the timer on every submit and after every completion,
	// as processor sharing must whenever k may have changed. A set without
	// it is one lane at rate 1 (Exclusive mode), whose head's completion is
	// fixed when it starts, so the timer is armed only then.
	retime bool

	lanes []*lane
	busy  int           // running lanes: k
	at    time.Duration // when progress was last applied
	next  simclock.Timer
	fire  func()  // onDone, bound once so arming the timer allocates nothing
	fin   []*lane // scratch for the lanes one firing completes
}

func (s *laneSet) init(d *Device, rate func(int) float64, retime bool) {
	s.dev, s.rate, s.retime = d, rate, retime
	s.fire = s.onDone
}

// idleLane returns an empty lane, adding one if every lane holds work.
func (s *laneSet) idleLane() *lane {
	for _, l := range s.lanes {
		if l.n == 0 {
			return l
		}
	}
	l := &lane{}
	s.lanes = append(s.lanes, l)
	return l
}

// submit queues j on lane l, which must belong to the set.
func (s *laneSet) submit(l *lane, j job) {
	s.advance()
	l.push(j)
	if !l.running {
		s.start(l)
	}
	if s.retime {
		s.reschedule()
	}
}

// start runs the head of a stopped lane, if it has one.
func (s *laneSet) start(l *lane) {
	if l.n == 0 {
		return
	}
	d := s.dev
	if !d.isBusy() {
		d.busySince = d.clock.Now()
	}
	l.running = true
	l.busySince = d.clock.Now()
	s.busy++
	if !s.retime {
		s.reschedule()
	}
}

// advance applies the progress made since the last call to every running
// head, at the rate of the current k.
func (s *laneSet) advance() {
	now := s.dev.clock.Now()
	elapsed := now - s.at
	s.at = now
	if elapsed <= 0 || s.busy == 0 {
		return
	}
	progress := time.Duration(float64(elapsed) * s.rate(s.busy))
	for _, l := range s.lanes {
		if l.running {
			l.front().work -= progress
		}
	}
}

// reschedule arms the completion timer for the running head with the least
// remaining work.
func (s *laneSet) reschedule() {
	s.next.Stop()
	s.next = simclock.Timer{}
	if s.busy == 0 {
		return
	}
	var first *job
	for _, l := range s.lanes {
		if !l.running {
			continue
		}
		if j := l.front(); first == nil || j.work < first.work {
			first = j
		}
	}
	wait := time.Duration(float64(first.work) / s.rate(s.busy))
	s.next = s.dev.clock.After(wait, s.fire)
}

// onDone completes every running head whose work is exhausted. Each
// completion callback runs before the next lane completes, and may submit
// to any lane, including the one it just left.
func (s *laneSet) onDone() {
	s.advance()
	d := s.dev
	fin := s.fin[:0]
	for _, l := range s.lanes {
		if l.running && l.front().work <= time.Nanosecond {
			fin = append(fin, l)
		}
	}
	for i := 0; i < len(fin); i++ {
		for k := i + 1; k < len(fin); k++ {
			if fin[k].front().seq < fin[i].front().seq {
				fin[i], fin[k] = fin[k], fin[i]
			}
		}
	}
	for _, l := range fin {
		j := l.pop()
		l.running = false
		now := d.clock.Now()
		l.busy += now - l.busySince
		s.busy--
		if !d.isBusy() {
			d.busy += now - d.busySince
		}
		if j.done != nil {
			j.done()
		}
		// The callback may have started the lane by submitting to it.
		if !l.running {
			s.start(l)
		}
		s.maybeDetach(l)
	}
	clear(fin)
	s.fin = fin[:0]
	if s.retime {
		s.reschedule()
	}
}

// maybeDetach removes a drained lane marked releasing from the set.
func (s *laneSet) maybeDetach(l *lane) {
	if !l.releasing || l.released || l.n > 0 {
		return
	}
	l.released = true
	for i, m := range s.lanes {
		if m == l {
			s.lanes = append(s.lanes[:i], s.lanes[i+1:]...)
			return
		}
	}
}
