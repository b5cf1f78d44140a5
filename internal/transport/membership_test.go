package transport

import (
	"reflect"
	"testing"
)

func TestMembershipLifecycle(t *testing.T) {
	m, err := NewMembership(6)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Full() || m.Size() != 6 {
		t.Fatalf("fresh membership: %v", m)
	}
	if got := m.Members(); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("Members() = %v", got)
	}

	if err := m.Remove(3); err != nil {
		t.Fatal(err)
	}
	if m.Full() || m.Size() != 5 {
		t.Fatalf("after remove: %v", m)
	}
	if got := m.Members(); !reflect.DeepEqual(got, []int{0, 1, 2, 4, 5}) {
		t.Fatalf("Members() = %v", got)
	}

	if err := m.Remove(3); err == nil {
		t.Fatal("double remove: want error")
	}
	if err := m.Remove(99); err == nil {
		t.Fatal("out-of-range remove: want error")
	}
	if err := m.Remove(0, 0); err == nil {
		t.Fatal("duplicate slots in one remove: want error")
	}
	if m.Size() != 5 {
		t.Fatalf("failed removes must not change state: %v", m)
	}

	if got := m.RestoreAll(); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("RestoreAll() = %v, want [3]", got)
	}
	if !m.Full() || !m.Alive(3) {
		t.Fatalf("after restore: %v", m)
	}
}

func TestMembershipNoSurvivors(t *testing.T) {
	m, err := NewMembership(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Remove(0, 1, 2); err == nil {
		t.Fatal("removing every slot: want error")
	}
	if m.Size() != 3 {
		t.Fatalf("failed remove must not change state: %v", m)
	}
	if err := m.Remove(0, 1); err != nil {
		t.Fatal(err)
	}
	if got := m.Members(); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("Members() = %v", got)
	}
}

func TestMembershipRestoreAll(t *testing.T) {
	m, err := NewMembership(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Remove(4, 1); err != nil {
		t.Fatal(err)
	}
	revived := m.RestoreAll()
	if !reflect.DeepEqual(revived, []int{1, 4}) {
		t.Fatalf("RestoreAll() = %v, want [1 4]", revived)
	}
	if !m.Full() {
		t.Fatalf("after RestoreAll: %v", m)
	}
	if got := m.RestoreAll(); got != nil {
		t.Fatalf("RestoreAll on full membership = %v, want nil", got)
	}
}

func TestMembershipInvalid(t *testing.T) {
	if _, err := NewMembership(0); err == nil {
		t.Fatal("NewMembership(0): want error")
	}
	if _, err := NewMembership(-2); err == nil {
		t.Fatal("NewMembership(-2): want error")
	}
}
