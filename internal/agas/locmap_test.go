package agas

import (
	"errors"
	"testing"
)

func TestLocalityMapPartition(t *testing.T) {
	m, err := NewLocalityMap([]Range{{0, 2}, {2, 5}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Nodes() != 3 || m.Localities() != 6 {
		t.Fatalf("got %d nodes, %d localities", m.Nodes(), m.Localities())
	}
	wantNode := []int{0, 0, 1, 1, 1, 2}
	for loc, want := range wantNode {
		if got, ok := m.NodeOf(loc); !ok || got != want {
			t.Errorf("NodeOf(%d) = %d, %v, want %d", loc, got, ok, want)
		}
	}
	if rg, ok := m.NodeRange(1); !ok || rg != (Range{2, 5}) {
		t.Errorf("NodeRange(1) = %v, %v", rg, ok)
	}
	if m.Version() != 1 {
		t.Errorf("fresh map version = %d, want 1", m.Version())
	}

	for _, bad := range [][]Range{
		{},               // empty
		{{1, 3}},         // does not start at 0
		{{0, 2}, {3, 4}}, // gap
		{{0, 2}, {1, 4}}, // overlap
		{{0, 3}, {2, 4}}, // overlap inside the previous range
		{{0, 2}, {2, 2}}, // empty node
		{{2, 0}},         // inverted range
	} {
		if _, err := NewLocalityMap(bad); err == nil {
			t.Errorf("partition %v accepted", bad)
		}
	}
}

// mustPanic runs fn and fails the test unless it panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

func TestLocalityMapOutOfRangeLookups(t *testing.T) {
	m := MustLocalityMap([]Range{{0, 2}, {2, 4}})
	// A locality not in any node range is a routable miss, not node 0 and
	// not a panic: a racing membership change must surface as an error the
	// caller can turn into a typed failure, never a process crash.
	if _, ok := m.NodeOf(-1); ok {
		t.Error("NodeOf(-1) ok")
	}
	if _, ok := m.NodeOf(4); ok {
		t.Error("NodeOf(4) ok")
	}
	if _, ok := m.NodeRange(-1); ok {
		t.Error("NodeRange(-1) ok")
	}
	if _, ok := m.NodeRange(2); ok {
		t.Error("NodeRange(2) ok")
	}
	if !((Range{0, 2}).Contains(1)) || (Range{0, 2}).Contains(2) {
		t.Error("Range.Contains is not half-open")
	}
	if (Range{3, 7}).Count() != 4 {
		t.Error("Range.Count wrong")
	}
}

func TestLocalityMapJoinAndDeath(t *testing.T) {
	m := MustLocalityMap([]Range{{0, 2}, {2, 4}})
	var events []MemberEvent
	m.Subscribe(func(ev MemberEvent) { events = append(events, ev) })

	// A join must continue the partition exactly where the map ends.
	if _, err := m.AddNode(Range{5, 7}); err == nil {
		t.Error("gapped join accepted")
	}
	if _, err := m.AddNode(Range{4, 4}); err == nil {
		t.Error("empty join accepted")
	}
	n, err := m.AddNode(Range{4, 6})
	if err != nil || n != 2 {
		t.Fatalf("AddNode = %d, %v", n, err)
	}
	if m.Nodes() != 3 || m.Localities() != 6 || m.Version() != 2 {
		t.Fatalf("after join: %d nodes, %d localities, version %d",
			m.Nodes(), m.Localities(), m.Version())
	}
	if host, ok := m.NodeOf(5); !ok || host != 2 {
		t.Fatalf("NodeOf(5) = %d, %v", host, ok)
	}

	// Death re-homes the corpse's localities onto the lowest live node and
	// marks them lost; announced ranges are preserved.
	ev, changed := m.MarkDead(1)
	if !changed || ev.Adopter != 0 || len(ev.Moved) != 2 || ev.Moved[0] != 2 || ev.Moved[1] != 3 {
		t.Fatalf("MarkDead(1) = %+v, %v", ev, changed)
	}
	if m.Alive(1) || !m.Alive(0) || !m.Alive(2) {
		t.Fatal("liveness after death wrong")
	}
	if host, ok := m.NodeOf(2); !ok || host != 0 {
		t.Fatalf("adopted NodeOf(2) = %d, %v", host, ok)
	}
	if !m.Lost(2) || !m.Lost(3) || m.Lost(0) || m.Lost(4) {
		t.Fatal("lost flags wrong")
	}
	if rg, ok := m.NodeRange(1); !ok || rg != (Range{2, 4}) {
		t.Fatalf("announced range rewritten: %v, %v", rg, ok)
	}
	// Marking a dead node again is a no-op.
	if _, changed := m.MarkDead(1); changed {
		t.Fatal("double MarkDead changed the map")
	}
	if got := m.LiveNodes(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("LiveNodes = %v", got)
	}
	if len(events) != 2 || events[0].Kind != MemberJoined || events[1].Kind != MemberDied {
		t.Fatalf("events = %+v", events)
	}

	// A second death cascades the already-adopted localities onward.
	ev, changed = m.MarkDead(0)
	if !changed || ev.Adopter != 2 || len(ev.Moved) != 4 {
		t.Fatalf("MarkDead(0) = %+v, %v", ev, changed)
	}
	for loc := 0; loc < 4; loc++ {
		if host, ok := m.NodeOf(loc); !ok || host != 2 {
			t.Fatalf("NodeOf(%d) = %d, %v after cascade", loc, host, ok)
		}
	}
}

func TestDistributedResolutionRoutesToHomeNode(t *testing.T) {
	m := MustLocalityMap([]Range{{0, 2}, {2, 4}})
	s := NewService(4)
	s.SetDistribution(m, 0)

	// A resident name resolves from the authoritative directory.
	g := s.Alloc(1, KindData)
	if owner, err := s.Owner(g); err != nil || owner != 1 {
		t.Fatalf("resident owner = %d, %v", owner, err)
	}
	// A name homed on the other node resolves to its home locality: the
	// owning node finishes resolution there.
	remote := GID{Home: 3, Kind: KindData, Seq: 77}
	if owner, err := s.Owner(remote); err != nil || owner != 3 {
		t.Fatalf("remote owner = %d, %v", owner, err)
	}
	// Allocation homed off-node is a programming error.
	mustPanic(t, "off-node alloc", func() { s.Alloc(2, KindData) })
	// The home directory accepts a migration to a locality hosted by the
	// other node: ownership is global, only the directory is local.
	if err := s.Migrate(g, 2); err != nil {
		t.Errorf("cross-node migrate rejected: %v", err)
	}
	if owner, err := s.Owner(g); err != nil || owner != 2 {
		t.Errorf("after cross-node migrate owner = %d, %v; want 2", owner, err)
	}
	// Committing into a directory homed on the other node is refused: the
	// commit must be routed to the home node instead.
	remoteHomed := GID{Home: 3, Kind: KindData, Seq: 42}
	if err := s.Migrate(remoteHomed, 0); err == nil {
		t.Error("migrate commit accepted for a remotely homed directory entry")
	}
	if err := s.CommitMigration(remoteHomed, 0, 2); err == nil {
		t.Error("CommitMigration accepted for a remotely homed directory entry")
	}
}

func TestImportAndForwardResolution(t *testing.T) {
	m := MustLocalityMap([]Range{{0, 2}, {2, 4}})
	s := NewService(4)
	s.SetDistribution(m, 0) // this node hosts localities 0,1

	// An object homed on the other node but imported here resolves to its
	// local hosting locality, not back toward home.
	g := GID{Home: 3, Kind: KindData, Seq: 9}
	s.SetImport(g, 1, 2)
	if owner, gen, err := s.OwnerGen(g); err != nil || owner != 1 || gen != 2 {
		t.Fatalf("imported OwnerGen = %d gen %d, %v; want 1 gen 2", owner, gen, err)
	}
	if gen, err := s.Generation(g); err != nil || gen != 2 {
		t.Fatalf("imported Generation = %d, %v; want 2", gen, err)
	}

	// After it departs, a forwarding pointer answers with ErrMoved naming
	// the next hop.
	s.DropImport(g)
	s.SetForward(g, 3, 3)
	owner, gen, err := s.OwnerGen(g)
	if !errors.Is(err, ErrMoved) {
		t.Fatalf("departed OwnerGen err = %v; want ErrMoved", err)
	}
	var mv *MovedError
	if !errors.As(err, &mv) || mv.To != 3 || mv.Gen != 3 || owner != 3 || gen != 3 {
		t.Fatalf("forwarding verdict = %d gen %d (%v)", owner, gen, err)
	}
	// Owner folds the verdict into a plain next hop.
	if o, err := s.Owner(g); err != nil || o != 3 {
		t.Fatalf("Owner over forward = %d, %v", o, err)
	}
	// A stale forward (older generation) never overwrites a newer one.
	s.SetForward(g, 2, 1)
	if to, fgen, ok := s.Forward(g); !ok || to != 3 || fgen != 3 {
		t.Fatalf("stale SetForward overwrote: to=%d gen=%d ok=%v", to, fgen, ok)
	}
	// Free clears every trace of the name on this node.
	s.Free(g)
	if _, _, ok := s.Forward(g); ok {
		t.Fatal("Free left a forwarding pointer")
	}
	if o, _, err := s.OwnerGen(g); err != nil || o != 3 {
		t.Fatalf("after Free resolution should fall back to home: %d, %v", o, err)
	}
}

func TestStaleCacheResolutionAfterMigration(t *testing.T) {
	s := NewService(4)
	g := s.Alloc(0, KindData)

	// Locality 2 caches the original owner.
	if owner, err := s.ResolveCached(2, g); err != nil || owner != 0 {
		t.Fatalf("initial resolve = %d, %v", owner, err)
	}
	if err := s.Migrate(g, 3); err != nil {
		t.Fatal(err)
	}
	// The cache is deliberately stale (no coherence) ...
	if stale, _ := s.ResolveCached(2, g); stale != 0 {
		t.Fatalf("expected stale cache to answer 0, got %d", stale)
	}
	// ... a Repoint verdict at the migration generation repairs it in
	// place ...
	gen, err := s.Generation(g)
	if err != nil {
		t.Fatal(err)
	}
	s.Repoint(g, 3, gen)
	if fresh, _ := s.ResolveCached(2, g); fresh != 3 {
		t.Fatalf("repointed cache = %d, want 3", fresh)
	}
	// ... and an older (replayed) verdict cannot roll it back.
	s.Repoint(g, 0, gen-1)
	if held, _ := s.ResolveCached(2, g); held != 3 {
		t.Fatalf("stale verdict rolled cache back to %d", held)
	}
	// Repoint never creates lines: locality 1 has no cached translation
	// and must still consult the directory on first use.
	before := s.Resolutions.Load()
	if owner, _ := s.ResolveCached(1, g); owner != 3 {
		t.Fatalf("cold resolve after migration = %d, want 3", owner)
	}
	if s.Resolutions.Load() != before+1 {
		t.Fatal("cold locality did not consult the directory")
	}
	// A replayed CommitMigration at an older generation is a no-op.
	if err := s.CommitMigration(g, 1, gen-1); err != nil {
		t.Fatal(err)
	}
	if owner, err := s.Owner(g); err != nil || owner != 3 {
		t.Fatalf("stale commit moved ownership: %d, %v", owner, err)
	}
}

func TestHardwareGIDDeterministic(t *testing.T) {
	if HardwareGID(3) != HardwareGID(3) {
		t.Fatal("hardware GID not deterministic")
	}
	s := NewService(2)
	g := s.AllocHardware(1)
	if g != HardwareGID(1) {
		t.Fatalf("AllocHardware = %v, want %v", g, HardwareGID(1))
	}
	if owner, err := s.Owner(g); err != nil || owner != 1 {
		t.Fatalf("hardware owner = %d, %v", owner, err)
	}
	// The reserved sequence cannot collide with allocated names.
	d := s.Alloc(1, KindHardware)
	if d == g {
		t.Fatal("allocated name collided with reserved hardware name")
	}
}

// TestCacheKeepsNoGuessesAndFreeEvicts pins the translation cache's
// bounds on a multi-node machine: a route-toward-home guess for a remote
// name is never cached (it is recomputed, and counts as a hit), Free
// evicts a freed name from every resident locality's cache, and a moved
// verdict for a remote name creates the line a stale sender needs to
// reach the new owner directly.
func TestCacheKeepsNoGuessesAndFreeEvicts(t *testing.T) {
	m := MustLocalityMap([]Range{{0, 2}, {2, 4}})
	s := NewService(4)
	s.SetDistribution(m, 0)

	remote := GID{Home: 3, Kind: KindData, Seq: 5}
	hits, res := s.CacheHits.Load(), s.Resolutions.Load()
	for i := 0; i < 3; i++ {
		if owner, err := s.ResolveCached(0, remote); err != nil || owner != 3 {
			t.Fatalf("remote guess = %d, %v; want home 3", owner, err)
		}
	}
	if n := s.CachedLines(0); n != 0 {
		t.Fatalf("route-toward-home guess cached: %d lines", n)
	}
	if s.CacheHits.Load()-hits != 3 || s.Resolutions.Load() != res {
		t.Fatalf("guesses counted as %d hits, %d resolutions; want 3, 0",
			s.CacheHits.Load()-hits, s.Resolutions.Load()-res)
	}

	// An authoritative consult fills no cache; a cached resolve of a
	// resident name fills its locality's cache; Free empties them all.
	g := s.Alloc(0, KindData)
	if _, _, err := s.ResolveAuthoritative(1, g); err != nil {
		t.Fatal(err)
	}
	if n := s.CachedLines(1); n != 0 {
		t.Fatalf("authoritative consult cached %d lines", n)
	}
	for loc := 0; loc < 2; loc++ {
		if _, err := s.ResolveCached(loc, g); err != nil {
			t.Fatal(err)
		}
	}
	if s.CachedLines(0) != 1 || s.CachedLines(1) != 1 {
		t.Fatalf("resident name cached in %d and %d lines, want 1 and 1", s.CachedLines(0), s.CachedLines(1))
	}
	s.Free(g)
	if s.CachedLines(0) != 0 || s.CachedLines(1) != 0 {
		t.Fatalf("Free left %d and %d cache lines", s.CachedLines(0), s.CachedLines(1))
	}

	// A moved verdict for the remote name creates its line in every
	// resident cache, so the next send goes straight to the new owner.
	s.Repoint(remote, 2, 4)
	for loc := 0; loc < 2; loc++ {
		if owner, err := s.ResolveCached(loc, remote); err != nil || owner != 2 {
			t.Fatalf("locality %d after moved verdict resolves to %d, %v; want 2", loc, owner, err)
		}
	}
	// An older verdict cannot roll the created line back.
	s.Repoint(remote, 3, 1)
	if owner, _ := s.ResolveCached(0, remote); owner != 2 {
		t.Fatalf("stale verdict rolled the created line back to %d", owner)
	}
}
