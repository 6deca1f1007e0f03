package expr

import (
	"strings"
	"testing"
	"testing/quick"
)

func env() MapEnv {
	return MapEnv{
		"D10": {
			"Classification": String("Resolution File"),
			"value":          Number(9),
			"Size":           Number(1500),
		},
		"A": {"Classification": String("POD-Parameter")},
		"B": {"Classification": String("2D Image"), "Size": String("1.5")},
	}
}

func TestParseAndEval(t *testing.T) {
	tests := []struct {
		src  string
		want bool
	}{
		{`D10.Classification = "Resolution File"`, true},
		{`D10.Classification = "3D Model"`, false},
		{`D10.value > 8`, true},
		{`D10.value > 9`, false},
		{`D10.value >= 9`, true},
		{`D10.value < 10`, true},
		{`D10.value <= 8`, false},
		{`D10.value != 8`, true},
		{`D10.value <> 8`, true},
		{`D10.value == 9`, true},
		{`A.Classification = "POD-Parameter" and B.Classification = "2D Image"`, true},
		{`A.Classification = "POD-Parameter" and B.Classification = "3D Model"`, false},
		{`A.Classification = "3D Model" or B.Classification = "2D Image"`, true},
		{`not (A.Classification = "3D Model")`, true},
		{`not A.Classification = "POD-Parameter"`, false},
		{`true`, true},
		{`false`, false},
		{``, true},
		{`   `, true},
		{`(D10.value > 8 and D10.value < 10) or false`, true},
		// Missing object or property: comparison is false.
		{`Z9.Classification = "x"`, false},
		{`D10.Missing = "x"`, false},
		{`not Z9.Classification = "x"`, true},
		// Bare identifiers act as string literals.
		{`D10.Classification = Resolution-File or D10.value = 9`, true},
		// Numeric coercion of string-valued slots.
		{`B.Size = 1.5`, true},
		{`B.Size > 1`, true},
		// Ref-to-ref comparison.
		{`D10.Size > B.Size`, true},
		{`A.Classification = B.Classification`, false},
	}
	for _, tt := range tests {
		n, err := Parse(tt.src)
		if err != nil {
			t.Errorf("Parse(%q) error: %v", tt.src, err)
			continue
		}
		if got := n.Eval(env()); got != tt.want {
			t.Errorf("Eval(%q) = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`D10.`,
		`D10.value >`,
		`D10.value ! 8`,
		`(D10.value > 8`,
		`D10.value > 8 )`,
		`"unterminated`,
		`D10.value & 8`,
		`and`,
		`D10.value > 8 extra.ref = 1`,
		`= 8`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestSyntaxErrorMessage(t *testing.T) {
	_, err := Parse(`D10.value ? 8`)
	if err == nil {
		t.Fatal("expected error")
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type = %T, want *SyntaxError", err)
	}
	if se.Pos != 10 {
		t.Errorf("Pos = %d, want 10", se.Pos)
	}
	if !strings.Contains(se.Error(), "offset 10") {
		t.Errorf("Error() = %q, missing offset", se.Error())
	}
}

func TestStringRoundTrip(t *testing.T) {
	srcs := []string{
		`D10.Classification = "Resolution File"`,
		`D10.value > 8 and D10.value < 12`,
		`(A.x = 1 and B.y = 2) or not (C.z = 3)`,
		`A.Classification != "x" or B.t <= 4`,
	}
	for _, src := range srcs {
		n1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		printed := n1.String()
		n2, err := Parse(printed)
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", printed, err)
		}
		if n2.String() != printed {
			t.Errorf("round trip unstable: %q -> %q -> %q", src, printed, n2.String())
		}
	}
}

func TestRefs(t *testing.T) {
	n, err := Parse(`A.Classification = "x" and (B.Size > 3 or not C.Type = D.Type)`)
	if err != nil {
		t.Fatal(err)
	}
	refs := n.Refs(nil)
	want := []Ref{
		{"A", "Classification"},
		{"B", "Size"},
		{"C", "Type"},
		{"D", "Type"},
	}
	if len(refs) != len(want) {
		t.Fatalf("got %d refs %v, want %d", len(refs), refs, len(want))
	}
	for i := range want {
		if refs[i] != want[i] {
			t.Errorf("refs[%d] = %v, want %v", i, refs[i], want[i])
		}
	}
}

func TestValueEqualCoercion(t *testing.T) {
	if !String("8").Equal(Number(8)) {
		t.Error(`String("8") should equal Number(8)`)
	}
	if String("8x").Equal(Number(8)) {
		t.Error(`String("8x") should not equal Number(8)`)
	}
	if !Bool(true).Equal(Number(1)) {
		t.Error("Bool(true) should equal Number(1) via coercion")
	}
	if !String("abc").Equal(String("abc")) {
		t.Error("identical strings should be equal")
	}
}

func TestValueCompare(t *testing.T) {
	tests := []struct {
		a, b Value
		want int
	}{
		{Number(1), Number(2), -1},
		{Number(2), Number(1), 1},
		{Number(2), Number(2), 0},
		{String("10"), String("9"), 1}, // numeric ordering wins
		{String("a"), String("b"), -1},
		{String("abc"), Number(5), -1}, // falls back to lexicographic "abc" vs "5"? no: "abc" > "5"
	}
	// Fix the last expectation: '5' < 'a' lexicographically.
	tests[len(tests)-1].want = 1
	for _, tt := range tests {
		if got := tt.a.Compare(tt.b); got != tt.want {
			t.Errorf("Compare(%#v, %#v) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestValueKindsAndAccessors(t *testing.T) {
	if String("x").Kind() != KindString || Number(1).Kind() != KindNumber || Bool(true).Kind() != KindBool {
		t.Fatal("Kind() mismatch")
	}
	if n, ok := String("3.5").Num(); !ok || n != 3.5 {
		t.Errorf("String(3.5).Num() = %v,%v", n, ok)
	}
	if _, ok := String("nope").Num(); ok {
		t.Error("String(nope).Num() should fail")
	}
	if n, ok := Bool(true).Num(); !ok || n != 1 {
		t.Errorf("Bool(true).Num() = %v,%v", n, ok)
	}
	if Number(2.5).Str() != "2.5" || Bool(false).Str() != "false" {
		t.Error("Str() canonical form mismatch")
	}
	for _, k := range []Kind{KindString, KindNumber, KindBool, Kind(42)} {
		if k.String() == "" {
			t.Errorf("Kind(%d).String() empty", k)
		}
	}
}

// Property: any parsed expression prints to a form that re-parses to an
// equivalent expression (same evaluation on a fixed env, same printed form).
func TestQuickPrintParseStable(t *testing.T) {
	e := env()
	f := func(obj, prop uint8, opSel uint8, num int16, neg bool) bool {
		objs := []string{"D10", "A", "B", "Z9"}
		props := []string{"Classification", "value", "Size", "Missing"}
		ops := []Op{OpEq, OpNe, OpLt, OpGt, OpLe, OpGe}
		c := &Cmp{
			Left:  Operand{IsRef: true, Ref: Ref{Obj: objs[int(obj)%len(objs)], Prop: props[int(prop)%len(props)]}},
			Op:    ops[int(opSel)%len(ops)],
			Right: Operand{Lit: Number(float64(num))},
		}
		var n Node = c
		if neg {
			n = &Not{Term: c}
		}
		printed := n.String()
		re, err := Parse(printed)
		if err != nil {
			return false
		}
		return re.Eval(e) == n.Eval(e) && re.String() == printed
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkParse(b *testing.B) {
	src := `A.Classification = "POD-Parameter" and B.Classification = "2D Image" and (D10.value > 8 or D10.Size < 100)`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalParsed(b *testing.B) {
	n, err := Parse(`A.Classification = "POD-Parameter" and B.Classification = "2D Image" and D10.value > 8`)
	if err != nil {
		b.Fatal(err)
	}
	e := env()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !n.Eval(e) {
			b.Fatal("expected true")
		}
	}
}
