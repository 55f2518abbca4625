package session

import (
	"strconv"
	"testing"
)

func TestTableAssignsDenseHandles(t *testing.T) {
	tab := NewTable()
	if tab.Len() != 1 || tab.ID(0) != "" {
		t.Fatalf("new table: Len %d, ID(0) %q; want 1, empty", tab.Len(), tab.ID(0))
	}
	ids := []string{"game-0", "game-1", "traffic/det"}
	for i, id := range ids {
		if h := tab.Intern(id); h != Handle(i+1) {
			t.Fatalf("Intern(%s) = %d, want %d", id, h, i+1)
		}
	}
	if h := tab.Intern("game-0"); h != 1 {
		t.Fatalf("re-Intern(game-0) = %d, want 1", h)
	}
	view := tab.IDs()
	tab.Intern("late")
	for h, id := range view {
		if tab.ID(Handle(h)) != id {
			t.Fatalf("handle %d: ID %q, view %q", h, tab.ID(Handle(h)), id)
		}
		if got, ok := tab.Lookup(id); !ok || got != Handle(h) {
			t.Fatalf("Lookup(%q) = %d, %v; want %d", id, got, ok, h)
		}
	}
	if len(view) != 4 || tab.Len() != 5 {
		t.Fatalf("view has %d IDs, table %d; want 4 and 5", len(view), tab.Len())
	}
	if _, ok := tab.Lookup("ghost"); ok {
		t.Fatal("Lookup found a session never interned")
	}
	if tab.ID(99) != "" {
		t.Fatal("ID of an unassigned handle is not empty")
	}
}

func TestFit(t *testing.T) {
	s := Fit([]int(nil), 3)
	if len(s) != 4 {
		t.Fatalf("Fit(nil, 3) has length %d, want 4", len(s))
	}
	s[3] = 7
	if s = Fit(s, 1); len(s) != 4 || s[3] != 7 {
		t.Fatalf("Fit to a handle in range changed the slice: %v", s)
	}
	if s = Fit(s, 5); len(s) != 6 || s[3] != 7 || s[5] != 0 {
		t.Fatalf("Fit(s, 5) = %v", s)
	}
}

// TestGrowInternsWithoutGrowing: after Grow(n), interning n new IDs
// allocates nothing, and handles stay what they would have been.
func TestGrowInternsWithoutGrowing(t *testing.T) {
	tab := NewTable()
	tab.Intern("first")
	ids := make([]string, 1000)
	for i := range ids {
		ids[i] = "s" + strconv.Itoa(i)
	}
	tab.Grow(len(ids))
	k := 0
	// AllocsPerRun calls once more than it is asked to, for warm-up.
	if n := testing.AllocsPerRun(len(ids)-1, func() { tab.Intern(ids[k]); k++ }); n != 0 {
		t.Fatalf("interning after Grow allocates %.2f times per ID, want 0", n)
	}
	if h, ok := tab.Lookup("first"); !ok || h != 1 {
		t.Fatalf("Lookup(first) = %d, %v after Grow; want 1, true", h, ok)
	}
	for i, id := range ids {
		if h, _ := tab.Lookup(id); h != Handle(i+2) || tab.ID(h) != id {
			t.Fatalf("%s: handle %d (ID %q), want %d", id, h, tab.ID(h), i+2)
		}
	}
	tab.Grow(1) // a small grow keeps the index
	if h := tab.Intern("first"); h != 1 {
		t.Fatalf("re-Intern(first) = %d after a small Grow, want 1", h)
	}
}
