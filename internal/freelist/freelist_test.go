package freelist

import "testing"

type state struct{ buf []int32 }

// TestListReuse: Get hands back what Put kept, newest first, and makes a
// zero state when nothing is kept; a warm Get/Put allocates nothing.
func TestListReuse(t *testing.T) {
	var l List[state]
	a, b := l.Get(), l.Get()
	if a == b || a.buf != nil {
		t.Fatal("an empty list must make distinct zero states")
	}
	l.Put(a)
	l.Put(b)
	if l.Get() != b || l.Get() != a {
		t.Fatal("Get must return the most recently kept state first")
	}
	l.Put(a)
	if n := testing.AllocsPerRun(100, func() { l.Put(l.Get()) }); n != 0 {
		t.Fatalf("warm Get/Put: %v allocs, want 0", n)
	}
}

// TestGrow: Grow reuses capacity, makes a zero array when it must, and
// never shrinks the backing array.
func TestGrow(t *testing.T) {
	s := Grow([]int32(nil), 4)
	if len(s) != 4 || s[3] != 0 {
		t.Fatalf("Grow(nil, 4) = %v", s)
	}
	s[0] = 7
	small := Grow(s, 2)
	if len(small) != 2 || &small[0] != &s[0] {
		t.Fatal("Grow must reuse the backing array when the capacity allows")
	}
	if again := Grow(small, 4); &again[0] != &s[0] || again[0] != 7 {
		t.Fatal("Grow must keep the backing array it shrank the length of")
	}
	if big := Grow(s, 5); &big[0] == &s[0] || big[0] != 0 {
		t.Fatal("Grow past the capacity must make a fresh zero array")
	}
}
