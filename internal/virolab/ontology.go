package virolab

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/ontology"
)

// Ontology returns the grid ontology shell (Figure 12) populated with the
// instances of Figure 13: task T1, process description PD-3DSD, case
// description CD-3DSD, the thirteen activities, the fifteen transitions, the
// data items D1-D12 (D8-D12 described with their creators even though they
// only exist after execution), and the four services with conditions C1-C8.
// It is the case study's only copy of its metadata: Catalog, InitialData,
// Case, Problem, Process and Task all read it. The KB is built once and
// shared, so callers must not add to it.
func Ontology() (*ontology.KB, error) { return fig13KB() }

var fig13KB = sync.OnceValues(buildOntology)

// buildOntology builds the Figure 13 instance table. Each service's
// InputCondition holds one condition per input formal (joined with " and "
// they are C1, C3, C5 and C7); its OutputCondition holds one X.prop = literal
// equality per property it stamps on an output. A process's activity and
// transition sets, and each activity's direct predecessors and successors,
// follow from the rows' order and the transitions.
func buildOntology() (*ontology.KB, error) {
	initial, result := []string{"D1", "D2", "D3", "D4", "D5", "D6", "D7"}, []string{"D12"}
	rows := []*ontology.Instance{
		data("D1", "POD-Parameter", "Text", "User", 3e3),
		data("D2", "P3DR-Parameter", "Text", "User", 0),
		data("D3", "P3DR-Parameter", "Text", "User", 0),
		data("D4", "P3DR-Parameter", "Text", "User", 0),
		data("D5", "POR-Parameter", "Text", "User", 0),
		data("D6", "PSF-Parameter", "Text", "User", 0),
		data("D7", "2D Image", "", "User", 1.5e9),
		data("D8", "Orientation File", "", "POD, POR", 0),
		data("D9", "3D Model", "", "P3DR1,P3DR4", 0),
		data("D10", "3D Model", "", "P3DR2", 0),
		data("D11", "3D Model", "", "P3DR3", 0),
		data("D12", "Resolution File", "", "PSF", 0),

		service("POD", 600, 2, // C1, C2
			[]string{`A.Classification = "POD-Parameter"`, `B.Classification = "2D Image"`},
			[]string{`C.Classification = "Orientation File"`, `C.Type = "Orientation File"`}),
		service("P3DR", 1800, 10, // C3, C4
			[]string{`A.Classification = "P3DR-Parameter"`, `B.Classification = "2D Image"`,
				`C.Classification = "Orientation File"`},
			[]string{`D.Classification = "3D Model"`, `D.Format = "Electron Density Map"`}),
		service("POR", 1200, 6, // C5, C6
			[]string{`A.Classification = "POR-Parameter"`, `B.Classification = "2D Image"`,
				`C.Classification = "Orientation File"`, `D.Classification = "3D Model"`},
			[]string{`E.Classification = "Orientation File"`, `E.Type = "Orientation File"`}),
		service("PSF", 300, 1, // C7, C8
			[]string{`A.Classification = "PSF-Parameter"`, `B.Classification = "3D Model"`,
				`C.Classification = "3D Model"`},
			[]string{`D.Classification = "Resolution File"`, `D.value = 12`}),

		flow("A1", "BEGIN", "Begin"),
		endUser("A2", "POD", "POD", []string{"D1", "D7"}, []string{"D8"}),
		endUser("A3", "P3DR1", "P3DR", []string{"D2", "D7", "D8"}, []string{"D9"}),
		flow("A4", "MERGE", "Merge"),
		endUser("A5", "POR", "POR", []string{"D5", "D7", "D8", "D9"}, []string{"D8"}),
		flow("A6", "FORK", "Fork"),
		endUser("A7", "P3DR2", "P3DR", []string{"D3", "D7", "D8"}, []string{"D10"}),
		endUser("A8", "P3DR3", "P3DR", []string{"D4", "D7", "D8"}, []string{"D11"}),
		endUser("A9", "P3DR4", "P3DR", []string{"D2", "D7", "D8"}, []string{"D9"}),
		flow("A10", "JOIN", "Join"),
		endUser("A11", "PSF", "PSF", []string{"D10", "D11"}, []string{"D12"}),
		flow("A12", "CHOICE", "Choice").Set("Constraint", ontology.Str(Cons1)),
		flow("A13", "END", "End"),

		transition("TR1", "A1", "A2"),                                         // BEGIN -> POD
		transition("TR2", "A2", "A3"),                                         // POD -> P3DR1
		transition("TR3", "A3", "A4"),                                         // P3DR1 -> MERGE
		transition("TR4", "A4", "A5"),                                         // MERGE -> POR
		transition("TR5", "A5", "A6"),                                         // POR -> FORK
		transition("TR6", "A6", "A7"),                                         // FORK -> P3DR2
		transition("TR7", "A6", "A8"),                                         // FORK -> P3DR3
		transition("TR8", "A6", "A9"),                                         // FORK -> P3DR4
		transition("TR9", "A7", "A10"),                                        // P3DR2 -> JOIN
		transition("TR10", "A8", "A10"),                                       // P3DR3 -> JOIN
		transition("TR11", "A9", "A10"),                                       // P3DR4 -> JOIN
		transition("TR12", "A10", "A11"),                                      // JOIN -> PSF
		transition("TR13", "A11", "A12"),                                      // PSF -> CHOICE
		transition("TR14", "A12", "A4").Set("Condition", ontology.Str(Cons1)), // CHOICE -> MERGE (iterate)
		transition("TR15", "A12", "A13"),                                      // CHOICE -> END

		ontology.NewInstance("CD-3DSD", ontology.ClassCaseDescription).
			Set("ID", ontology.Str("CD-3DSD")).
			Set("Name", ontology.Str("CD-3DSD")).
			Set("InitialDataSet", ontology.List(initial...)).
			Set("ResultSet", ontology.List(result...)).
			Set("Constraint", ontology.Str(Cons1)).
			Set("GoalCondition", ontology.Str(GoalCondition)),
		ontology.NewInstance("T1", ontology.ClassTask).
			Set("ID", ontology.Str("T1")).
			Set("Name", ontology.Str("3DSD")).
			Set("Owner", ontology.Str("UCF")).
			Set("Status", ontology.Str("Submitted")).
			Set("DataSet", ontology.List(initial...)).
			Set("ResultSet", ontology.List(result...)).
			Set("CaseDescription", ontology.Ref("CD-3DSD")).
			Set("ProcessDescription", ontology.Ref("PD-3DSD")).
			Set("NeedPlanning", ontology.Boolean(false)),
	}

	pd := ontology.NewInstance("PD-3DSD", ontology.ClassProcessDescription).
		Set("ID", ontology.Str("PD-3DSD")).
		Set("Name", ontology.Str("PD-3DSD")).
		Set("Creator", ontology.Str("User"))
	byID := make(map[string]*ontology.Instance, len(rows))
	for _, in := range rows {
		byID[in.ID] = in
		switch in.Class {
		case ontology.ClassActivity:
			appendList(pd, "ActivitySet", in.ID)
		case ontology.ClassTransition:
			appendList(pd, "TransitionSet", in.ID)
			src, dst := in.Text("SourceActivity"), in.Text("DestinationActivity")
			appendList(byID[src], "DirectSuccessorSet", dst)
			appendList(byID[dst], "DirectPredecessorSet", src)
		}
	}

	kb := ontology.GridShell()
	for _, in := range append(rows, pd) {
		if err := kb.AddInstance(in); err != nil {
			return nil, err
		}
	}
	if errs := kb.ValidateRefs(); len(errs) > 0 {
		return nil, fmt.Errorf("virolab: ontology references invalid: %v", errs[0])
	}
	return kb, nil
}

// data is a Data frame; an empty format or a zero size is left unset.
func data(id, classification, format, creator string, size float64) *ontology.Instance {
	in := ontology.NewInstance(id, ontology.ClassData).
		Set("Name", ontology.Str(id)).
		Set("Classification", ontology.Str(classification)).
		Set("Creator", ontology.Str(creator))
	if format != "" {
		in.Set("Format", ontology.Str(format))
	}
	if size > 0 {
		in.Set("Size", ontology.Num(size))
	}
	return in
}

// service is a Service frame; baseTime is in simulated seconds on a speed-1
// node. The input and output formals are the objects the conditions name.
func service(name string, baseTime, cost float64, inCond, outCond []string) *ontology.Instance {
	return ontology.NewInstance("svc-"+name, ontology.ClassService).
		Set("Name", ontology.Str(name)).
		Set("Type", ontology.Str("end-user")).
		Set("InputDataSet", ontology.List(formals(inCond)...)).
		Set("InputCondition", ontology.List(inCond...)).
		Set("OutputDataSet", ontology.List(formals(outCond)...)).
		Set("OutputCondition", ontology.List(outCond...)).
		Set("BaseTime", ontology.Num(baseTime)).
		Set("Cost", ontology.Num(cost))
}

// formals lists, in order and once each, the objects X of conditions
// X.prop = ....
func formals(conds []string) []string {
	var names []string
	for _, c := range conds {
		if name, _, _ := strings.Cut(c, "."); !slices.Contains(names, name) {
			names = append(names, name)
		}
	}
	return names
}

// flow is an Activity frame of task T1; kind is a workflow.ParseKind
// spelling.
func flow(id, name, kind string) *ontology.Instance {
	return ontology.NewInstance(id, ontology.ClassActivity).
		Set("ID", ontology.Str(id)).
		Set("Name", ontology.Str(name)).
		Set("TaskID", ontology.Str("T1")).
		Set("Type", ontology.Str(kind))
}

// endUser is an end-user Activity frame of task T1 with its data sets.
func endUser(id, name, service string, inputs, outputs []string) *ontology.Instance {
	return flow(id, name, "End-user").
		Set("ServiceName", ontology.Str(service)).
		Set("InputDataSet", ontology.List(inputs...)).
		Set("OutputDataSet", ontology.List(outputs...))
}

func transition(id, src, dst string) *ontology.Instance {
	return ontology.NewInstance(id, ontology.ClassTransition).
		Set("ID", ontology.Str(id)).
		Set("SourceActivity", ontology.Str(src)).
		Set("DestinationActivity", ontology.Str(dst))
}

// appendList appends id to the list slot of in.
func appendList(in *ontology.Instance, slot, id string) {
	in.Set(slot, ontology.List(append(in.Values[slot].L, id)...))
}
