package mutant

import "testing"

// TestTable: every entry is in ID order, has a unique name and names a
// package whose TestMutantsCaught runs it, so no entry can go unrun.
func TestTable(t *testing.T) {
	names := map[string]bool{}
	for i, e := range Table {
		if e.ID != ID(i+1) {
			t.Errorf("entry %d (%s) has ID %d, want %d", i, e.Name, e.ID, i+1)
		}
		if e.Name == "" || names[e.Name] {
			t.Errorf("entry %d: name %q is empty or repeated", i, e.Name)
		}
		names[e.Name] = true
		switch e.Pkg {
		case "core", "conform", "server":
		default:
			t.Errorf("%s: package %q has no TestMutantsCaught", e.Name, e.Pkg)
		}
		if e.Site == "" || e.Bug == "" {
			t.Errorf("%s: site or bug missing", e.Name)
		}
		if e.Pkg == "server" && e.Sweep {
			t.Errorf("%s: wtfconform runs no server, so its sweeps cannot catch a server site", e.Name)
		}
	}
}
