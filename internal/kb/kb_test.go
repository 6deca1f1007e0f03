package kb

import (
	"strings"
	"testing"

	"repro/internal/plantree"
	"repro/internal/virolab"
	"repro/internal/workflow"
)

func TestArchiveRoundTrip(t *testing.T) {
	a := NewArchive()
	v, err := a.Put("3DSD", "hyu", "initial", virolab.Process())
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Errorf("version = %d, want 1", v)
	}
	p, e, err := a.Get("3DSD", 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Creator != "hyu" || e.Comment != "initial" || e.Version != 1 {
		t.Errorf("entry = %+v", e)
	}
	if got := p.CountKind(workflow.KindEndUser); got != 7 {
		t.Errorf("restored end-user activities = %d, want 7", got)
	}
	tree, err := plantree.FromProcess(p)
	if err != nil {
		t.Fatal(err)
	}
	if tree.String() != "(seq POD P3DR (iter POR (conc P3DR P3DR P3DR) PSF))" {
		t.Errorf("restored tree = %s", tree)
	}
}

// putTree archives a plan tree through its process-description form.
func putTree(a *Archive, name, creator, comment string, tree *plantree.Node) (int, error) {
	p, err := plantree.ToProcess(name, tree)
	if err != nil {
		return 0, err
	}
	return a.Put(name, creator, comment, p)
}

func TestArchiveVersioning(t *testing.T) {
	a := NewArchive()
	if _, err := putTree(a, "plan", "u", "v1", plantree.Seq(plantree.Activity("A"), plantree.Activity("B"))); err != nil {
		t.Fatal(err)
	}
	if _, err := putTree(a, "plan", "u", "v2", plantree.Seq(plantree.Activity("A"), plantree.Activity("B"), plantree.Activity("C"))); err != nil {
		t.Fatal(err)
	}
	if a.Versions("plan") != 2 {
		t.Errorf("versions = %d", a.Versions("plan"))
	}
	p1, _, err := a.Get("plan", 1)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := a.Get("plan", 0)
	if err != nil {
		t.Fatal(err)
	}
	if p1.CountKind(workflow.KindEndUser) != 2 || p2.CountKind(workflow.KindEndUser) != 3 {
		t.Error("version contents mixed up")
	}
	if _, _, err := a.Get("plan", 9); err == nil {
		t.Error("phantom version returned")
	}
	if _, _, err := a.Get("nope", 0); err == nil {
		t.Error("phantom plan returned")
	}
}

func TestArchiveNamesAndDelete(t *testing.T) {
	a := NewArchive()
	_, _ = putTree(a, "bio/3dsd", "u", "", plantree.Activity("A"))
	_, _ = putTree(a, "bio/other", "u", "", plantree.Activity("B"))
	_, _ = putTree(a, "misc", "u", "", plantree.Activity("C"))
	names := a.Names("bio/")
	if len(names) != 2 || names[0] != "bio/3dsd" {
		t.Errorf("names = %v", names)
	}
	if got := a.Names(""); len(got) != 3 {
		t.Errorf("all names = %v", got)
	}
	a.Delete("misc")
	if a.Versions("misc") != 0 {
		t.Error("delete failed")
	}
}

func TestArchiveRejections(t *testing.T) {
	a := NewArchive()
	if _, err := a.Put("", "u", "", virolab.Process()); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := a.Put("bad", "u", "", workflow.NewProcess("empty")); err == nil {
		t.Error("invalid process accepted")
	}
	if _, err := putTree(a, "bad", "u", "", plantree.Seq()); err == nil {
		t.Error("invalid tree accepted")
	}
	if !strings.Contains(func() string {
		_, err := a.Put("", "u", "", virolab.Process())
		return err.Error()
	}(), "empty plan name") {
		t.Error("error message unclear")
	}
}
