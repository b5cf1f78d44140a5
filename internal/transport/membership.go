package transport

import "fmt"

// Membership tracks which slots of an original fixed-size world are
// currently alive — the bookkeeping behind every training world. A
// fixed world is a membership that never shrinks; in elastic training
// a rank death shrinks it in place (survivors re-form a smaller World
// whose comm ranks are the alive slots in ascending order) and a
// scheduled rejoin restores it. A World itself is immutable once
// built; Membership is the layer above that decides how large the
// next World is and which machine slot each comm rank stands for.
type Membership struct {
	alive []bool
	n     int // alive count
}

// NewMembership returns a membership of `total` slots, all alive.
func NewMembership(total int) (*Membership, error) {
	if total <= 0 {
		return nil, fmt.Errorf("transport: membership of %d slots", total)
	}
	alive := make([]bool, total)
	for i := range alive {
		alive[i] = true
	}
	return &Membership{alive: alive, n: total}, nil
}

// Size returns the number of alive slots.
func (m *Membership) Size() int { return m.n }

// Full reports whether every slot is alive.
func (m *Membership) Full() bool { return m.n == len(m.alive) }

// Alive reports whether slot s is alive.
func (m *Membership) Alive(s int) bool {
	return s >= 0 && s < len(m.alive) && m.alive[s]
}

// Members returns the alive slots in ascending order — comm rank i of
// the next World stands for slot Members()[i]. The slice is fresh.
func (m *Membership) Members() []int {
	out := make([]int, 0, m.n)
	for s, a := range m.alive {
		if a {
			out = append(out, s)
		}
	}
	return out
}

// Remove marks the given slots dead. Removing an unknown or already-
// dead slot, or the last alive slot, is an error and leaves the
// membership unchanged.
func (m *Membership) Remove(slots ...int) error {
	seen := make(map[int]bool, len(slots))
	for _, s := range slots {
		if !m.Alive(s) {
			return fmt.Errorf("transport: membership: slot %d not alive", s)
		}
		if seen[s] {
			return fmt.Errorf("transport: membership: slot %d removed twice", s)
		}
		seen[s] = true
	}
	if m.n-len(slots) < 1 {
		return fmt.Errorf("transport: membership: removing %d of %d alive slots leaves no survivors", len(slots), m.n)
	}
	for _, s := range slots {
		m.alive[s] = false
	}
	m.n -= len(slots)
	return nil
}

// RestoreAll revives every dead slot and returns the slots that were
// dead, in ascending order.
func (m *Membership) RestoreAll() []int {
	var revived []int
	for s, a := range m.alive {
		if !a {
			revived = append(revived, s)
			m.alive[s] = true
		}
	}
	m.n = len(m.alive)
	return revived
}

func (m *Membership) String() string {
	return fmt.Sprintf("%d/%d alive %v", m.n, len(m.alive), m.Members())
}
