// Package virolab reproduces the paper's Section 4 case study: the virtual
// laboratory for computational biology performing 3D reconstruction of virus
// structures from electron microscopy data. It provides the four parallel
// programs as end-user service specifications (POD, P3DR, POR, PSF) with the
// paper's conditions C1-C8, the data items D1-D12, the Figure 10 process
// description (plantree.FromProcess recovers its Figure 11 plan tree), and
// the Figure 13 ontology instances. The instances are the only copy of the case's metadata: the
// catalog, data, case and process are read from them.
//
// The paper's programs run on real micrographs (GBytes of 2D projections);
// here they are simulated: the planner and coordinator only ever inspect
// metadata (classification, size, resolution value), which this package
// reproduces exactly, including the iterative resolution-refinement loop
// controlled by the constraint Cons1.
package virolab

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/expr"
	"repro/internal/ontology"
	"repro/internal/workflow"
)

// Cons1 is the loop constraint of Figure 13: iterate the refinement while
// the achieved resolution is coarser than 8 Angstrom. (The paper's text
// names D10 in Cons1 but its own data table has PSF writing the resolution
// file to D12; we follow the data table.)
const Cons1 = `D12.Classification = "Resolution File" and D12.value > 8`

// GoalCondition is the case goal: a resolution file exists.
const GoalCondition = `G.Classification = "Resolution File"`

// DefaultResolutionSchedule is the simulated resolution (Angstrom) after
// each pass of the iterative refinement: the loop body runs until the value
// drops to 8 or below, giving the paper's "repeat at higher resolution"
// behaviour with three iterations.
var DefaultResolutionSchedule = []float64{12, 9.5, 7.8}

// fig13 is the knowledge base and the templates read from it, once per
// process; the exported readers hand out copies.
var fig13 = sync.OnceValue(func() *figure13 {
	kb, err := Ontology()
	if err != nil {
		panic(err)
	}
	f := &figure13{kb: kb, task: kb.Instance("T1")}
	f.caseDesc = kb.Instance(f.task.Values["CaseDescription"].S)
	for _, id := range f.caseDesc.Values["InitialDataSet"].L {
		f.initial = append(f.initial, readData(kb.Instance(id)))
	}
	if f.process, err = readProcess(kb, kb.Instance(f.task.Values["ProcessDescription"].S)); err != nil {
		panic(err)
	}
	return f
})

type figure13 struct {
	kb             *ontology.KB
	task, caseDesc *ontology.Instance // T1, CD-3DSD
	initial        []*workflow.DataItem
	process        *workflow.ProcessDescription
}

// Catalog returns the set T of end-user services with the conditions C1-C8,
// read from the Figure 13 Service frames. Base times are the simulated
// nominal durations on a speed-1 node.
func Catalog() *workflow.Catalog {
	cat, err := readCatalog(fig13().kb)
	if err != nil {
		panic(err)
	}
	return cat
}

// InitialData returns the data items D1-D7: CD-3DSD's initial data set.
func InitialData() []*workflow.DataItem {
	items := make([]*workflow.DataItem, len(fig13().initial))
	for i, d := range fig13().initial {
		items[i] = d.Clone()
	}
	return items
}

// Case returns the case description CD-3DSD.
func Case() *workflow.CaseDescription {
	cd := fig13().caseDesc
	c := workflow.NewCase(cd.Text("ID"), cd.Text("Name"))
	c.InitialData = InitialData()
	c.ResultSet = slices.Clone(cd.Values["ResultSet"].L)
	c.SetConstraint("Cons1", cd.Text("Constraint"))
	c.Goal = workflow.NewGoal(cd.Text("GoalCondition"))
	return c
}

// Problem returns the planning problem of Section 5's experiment: initial
// data D1-D7, the resolution-file goal, and the full catalog.
func Problem() *workflow.Problem {
	return &workflow.Problem{
		Name:    fig13().task.Text("Name"),
		Initial: workflow.NewState(InitialData()...),
		Goal:    workflow.NewGoal(fig13().caseDesc.Text("GoalCondition")),
		Catalog: Catalog(),
	}
}

// Process returns the Figure 10 process description PD-3DSD: BEGIN, POD,
// P3DR1, MERGE, POR, FORK, {P3DR2, P3DR3, P3DR4}, JOIN, PSF, CHOICE, END
// with transitions TR1-TR15 and the per-activity data sets of Figure 13.
func Process() *workflow.ProcessDescription { return fig13().process.Clone() }

// Task assembles the full Figure 13 task T1 ("3DSD").
func Task() *workflow.Task {
	t := fig13().task
	return &workflow.Task{ID: t.Text("ID"), Name: t.Text("Name"), Owner: t.Text("Owner"), Process: Process(), Case: Case()}
}

// ResolutionHook returns a coordination PostProcess hook that models the
// resolution refinement: each PSF pass writes the next value from the
// schedule onto its resolution file, so the Cons1 loop terminates once the
// resolution reaches 8 Angstrom or better.
func ResolutionHook(schedule []float64) func(act *workflow.Activity, produced []*workflow.DataItem, visit int) {
	if len(schedule) == 0 {
		schedule = DefaultResolutionSchedule
	}
	return func(act *workflow.Activity, produced []*workflow.DataItem, visit int) {
		if act.Service != "PSF" {
			return
		}
		idx := visit - 1
		if idx >= len(schedule) {
			idx = len(schedule) - 1
		}
		if idx < 0 {
			idx = 0
		}
		for _, item := range produced {
			if item.Classification() == "Resolution File" {
				item.With(workflow.PropValue, expr.Number(schedule[idx]))
			}
		}
	}
}

// PDLSource is the canonical PDL text of the Figure 10 process description,
// with the Figure 13 data-set bindings. pdl.ParseProcess of this text yields
// a process equivalent to Process().
const PDLSource = `
# Figure 10: 3D reconstruction of virus structures (PD-3DSD).
BEGIN,
  POD(D1, D7 -> D8);
  P3DR1 = P3DR(D2, D7, D8 -> D9);
  {ITERATIVE {COND D12.Classification = "Resolution File" and D12.value > 8}
    {POR(D5, D7, D8, D9 -> D8);
     {FORK
       {P3DR2 = P3DR(D3, D7, D8 -> D10)}
       {P3DR3 = P3DR(D4, D7, D8 -> D11)}
       {P3DR4 = P3DR(D2, D7, D8 -> D9)}
     JOIN};
     PSF(D10, D11 -> D12)}
  },
END
`

// readCatalog reads the Service frames: one input formal per InputCondition,
// and an output's properties from the OutputCondition equalities naming it.
func readCatalog(kb *ontology.KB) (*workflow.Catalog, error) {
	cat := workflow.NewCatalog()
	for _, f := range kb.InstancesOf(ontology.ClassService) {
		var svc workflow.Service
		svc.Name, svc.BaseTime, svc.Cost = f.Text("Name"), f.Values["BaseTime"].N, f.Values["Cost"].N
		formals, conds := f.Values["InputDataSet"].L, f.Values["InputCondition"].L
		svc.Inputs = make([]workflow.ParamSpec, len(formals))
		for i := range formals {
			svc.Inputs[i].Name, svc.Inputs[i].Condition = formals[i], conds[i]
		}
		props := map[string]map[string]expr.Value{}
		for _, name := range f.Values["OutputDataSet"].L {
			props[name] = map[string]expr.Value{}
			svc.Outputs = append(svc.Outputs, workflow.OutputSpec{Name: name, Props: props[name]})
		}
		for _, src := range f.Values["OutputCondition"].L {
			n, err := expr.Parse(src)
			eq, ok := n.(*expr.Cmp)
			if err != nil || !ok || eq.Op != expr.OpEq || !eq.Left.IsRef || eq.Right.IsRef || props[eq.Left.Ref.Obj] == nil {
				return nil, fmt.Errorf("virolab: service %s: output condition %q is not output.prop = literal", svc.Name, src)
			}
			props[eq.Left.Ref.Obj][eq.Left.Ref.Prop] = eq.Right.Lit
		}
		cat.Add(&svc)
	}
	return cat, nil
}

// readData reads a Data frame: every slot but Name is a property.
func readData(f *ontology.Instance) *workflow.DataItem {
	d := &workflow.DataItem{Name: f.Text("Name"), Props: make(map[string]expr.Value, len(f.Values))}
	for slot, v := range f.Values {
		switch {
		case slot == "Name":
		case v.Kind == ontology.KindNumber:
			d.Props[slot] = expr.Number(v.N)
		default:
			d.Props[slot] = expr.String(v.Text())
		}
	}
	return d
}

// readProcess reads a ProcessDescription frame's activity and transition
// sets, in list order.
func readProcess(kb *ontology.KB, pd *ontology.Instance) (*workflow.ProcessDescription, error) {
	p := workflow.NewProcess(pd.Text("Name"))
	for _, id := range pd.Values["ActivitySet"].L {
		f := kb.Instance(id)
		kind, err := workflow.ParseKind(f.Text("Type"))
		if err != nil {
			return nil, err
		}
		p.Activities = append(p.Activities, &workflow.Activity{
			ID: f.Text("ID"), Name: f.Text("Name"), Kind: kind, Service: f.Text("ServiceName"),
			Inputs: f.Values["InputDataSet"].L, Outputs: f.Values["OutputDataSet"].L, Constraint: f.Text("Constraint"),
		})
	}
	for _, id := range pd.Values["TransitionSet"].L {
		f := kb.Instance(id)
		p.Transitions = append(p.Transitions, &workflow.Transition{ID: f.Text("ID"),
			Source: f.Text("SourceActivity"), Dest: f.Text("DestinationActivity"), Condition: f.Text("Condition")})
	}
	return p, p.Validate()
}
