package core

import (
	"bytes"
	"slices"
	"testing"
)

// publishStale publishes data as a child of parentVID through c, the way a
// client whose tree had not seen the name's newer versions would, and
// returns the new version ID.
func publishStale(t *testing.T, c *Client, name string, data []byte, parentVID string) string {
	t.Helper()
	meta := buildVersion(t, c, name, data, parentVID)
	vid := meta.VersionID()
	op := c.engine.Begin(bg)
	defer op.Finish()
	if err := c.uploadMeta(op, meta, vid); err != nil {
		t.Fatal(err)
	}
	if err := c.absorb(meta, vid); err != nil {
		t.Fatal(err)
	}
	return vid
}

// forkWithLongBranch writes v1, alice's edit of it, and bob's b1 → b2 forked
// from v1 too; it returns alice's edit, the versions in order, and bob's
// bytes at b2.
func forkWithLongBranch(t *testing.T, alice, bob *Client) (aliceVID, v1, b1, b2 string, aliceData []byte) {
	t.Helper()
	base := randData(31, 3000)
	if err := alice.Put(bg, "doc", base); err != nil {
		t.Fatal(err)
	}
	v1 = mustHeadVersion(t, alice, "doc")
	aliceData = append(slices.Clone(base), "-alice"...)
	if err := alice.Put(bg, "doc", aliceData); err != nil {
		t.Fatal(err)
	}
	aliceVID = mustHeadVersion(t, alice, "doc")
	b1 = publishStale(t, bob, "doc", append(slices.Clone(base), "-bob1"...), v1)
	b2 = publishStale(t, bob, "doc", append(slices.Clone(base), "-bob2"...), b1)
	return aliceVID, v1, b1, b2, aliceData
}

// TestResolveSupersedesLosingBranchHead: the losing branch holds two
// versions, so its live leaf is its second one. Conflicts lists that leaf,
// and resolving for alice settles the name for every device.
func TestResolveSupersedesLosingBranchHead(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	alice, bob := env.client("alice", nil), env.client("bob", nil)
	aliceVID, _, _, b2, aliceData := forkWithLongBranch(t, alice, bob)

	cs := alice.Conflicts(bg)
	if len(cs) != 1 || len(cs[0].Versions) != 2 {
		t.Fatalf("conflicts = %+v", cs)
	}
	listed := []string{cs[0].Versions[0].VersionID, cs[0].Versions[1].VersionID}
	if !slices.Contains(listed, aliceVID) || !slices.Contains(listed, b2) {
		t.Errorf("conflict lists %v, want the live leaves %s and %s", listed, aliceVID, b2)
	}
	if err := alice.Resolve(bg, "doc", aliceVID); err != nil {
		t.Fatal(err)
	}
	if cs := alice.Conflicts(bg); len(cs) != 0 {
		t.Fatalf("conflicts after resolve = %+v", cs)
	}
	carol := env.client("carol", nil)
	got, info, err := carol.Get(bg, "doc")
	if err != nil {
		t.Fatal(err)
	}
	if info.Conflicted || info.VersionID != aliceVID || !bytes.Equal(got, aliceData) {
		t.Fatalf("a fresh device reads version %s conflicted=%v, want alice's %s unconflicted", info.VersionID, info.Conflicted, aliceVID)
	}
}

// TestResolveRefusesNonLeafWinner: a winner that is not one of the name's
// live leaves — here the fork point — is an error, and supersedes nothing.
func TestResolveRefusesNonLeafWinner(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	alice, bob := env.client("alice", nil), env.client("bob", nil)
	_, v1, b1, _, _ := forkWithLongBranch(t, alice, bob)
	if cs := alice.Conflicts(bg); len(cs) != 1 {
		t.Fatalf("conflicts = %+v, want alice to see the fork", cs)
	}
	for _, winner := range []string{v1, b1} {
		if err := alice.Resolve(bg, "doc", winner); err == nil {
			t.Fatalf("Resolve with non-leaf winner %s succeeded", winner)
		}
	}
	if _, info, err := alice.Get(bg, "doc"); err != nil || !info.Conflicted {
		t.Fatalf("after refused resolves: Get conflicted=%v err=%v, want the conflicted head readable", info.Conflicted, err)
	}
}

// TestResolveSyncsBeforeReadingLeaves: Resolve reads the name's leaves from
// the cloud, not from a replica that has not seen the other branch. With no
// sync first, the fork point is still refused as a winner, and alice's leaf
// settles the conflict for every device.
func TestResolveSyncsBeforeReadingLeaves(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	alice, bob := env.client("alice", nil), env.client("bob", nil)
	aliceVID, v1, _, _, aliceData := forkWithLongBranch(t, alice, bob)
	if err := alice.Resolve(bg, "doc", v1); err == nil {
		t.Fatal("Resolve with the fork point as winner succeeded on an unsynced replica")
	}
	if err := alice.Resolve(bg, "doc", aliceVID); err != nil {
		t.Fatal(err)
	}
	carol := env.client("carol", nil)
	got, info, err := carol.Get(bg, "doc")
	if err != nil {
		t.Fatal(err)
	}
	if info.Conflicted || info.VersionID != aliceVID || !bytes.Equal(got, aliceData) {
		t.Fatalf("a fresh device reads version %s conflicted=%v, want alice's %s unconflicted", info.VersionID, info.Conflicted, aliceVID)
	}
}
