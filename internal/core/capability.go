package core

import "strconv"

// Support levels in the capability matrices.
type Support int

const (
	No Support = iota
	Partial
	Full
	UpdateRuleOnly // "UR" in Table I
)

func (s Support) String() string {
	switch s {
	case Full:
		return "yes"
	case Partial:
		return "part"
	case UpdateRuleOnly:
		return "UR"
	}
	return "-"
}

// SystemKind distinguishes libraries, frameworks and frontends in Table I.
type SystemKind string

const (
	Library   SystemKind = "L"
	Framework SystemKind = "F"
	Frontend  SystemKind = "E"
)

// TableIColumns are the feature columns of the paper's Table I.
var TableIColumns = []string{
	"Sta", "Cus", "Def", "Eag", "Com", "Tra", "Dat", "Opt", "CusOpt",
	"PS", "Dec", "Asy", "CusDist",
}

// SystemCaps is one row of Table I.
type SystemCaps struct {
	Name string
	Kind SystemKind
	Caps map[string]Support
}

// TableI reproduces the paper's framework/feature survey (Table I).
// Encoded from the published matrix; Deep500 itself provides an isolated
// modular abstraction (and reference implementation) of each feature.
var TableI = []SystemCaps{
	{"cuDNN", Library, caps("Sta")},
	{"MKL-DNN", Library, caps("Sta")},
	{"TensorFlow", Framework, withUR(caps("Sta", "Def", "Com", "Tra", "Dat", "CusOpt", "PS", "Asy"), "Opt")},
	{"Caffe2", Framework, withUR(caps("Sta", "Cus", "Def", "Com", "Dat", "PS", "Dec", "Asy"), "Opt")},
	{"PyTorch", Framework, caps("Sta", "Eag", "Dat", "Opt", "Dec", "Asy")},
	{"MXNet", Framework, withUR(caps("Sta", "Cus", "Def", "Com", "Dat", "CusOpt", "PS", "Asy"), "Opt")},
	{"CNTK", Framework, withUR(caps("Sta", "Cus", "Def", "Com", "Dat", "PS", "Dec", "Asy"), "Opt")},
	{"Theano", Framework, caps("Sta", "Def", "Com", "Tra")},
	{"Chainer[MN]", Framework, caps("Sta", "Eag", "Dat", "CusOpt", "Dec", "Asy")},
	{"Darknet", Framework, caps("Sta", "Cus", "Def")},
	{"DL4j", Framework, withUR(caps("Sta", "Def", "Com", "Dat", "PS", "Asy"), "Opt")},
	{"DSSTNE", Framework, withUR(caps("Sta", "Cus", "Def", "Com"), "Opt")},
	{"PaddlePaddle", Framework, withUR(caps("Sta", "Def", "Dat", "PS", "Asy"), "Opt")},
	{"TVM", Framework, caps("Sta", "Def", "Com", "Tra")},
	{"Keras", Frontend, withUR(caps("Sta", "Def", "Eag", "Com", "Dat"), "Opt")},
	{"Horovod", Frontend, caps("Dec", "CusDist")},
	{"TensorLayer", Frontend, withUR(caps("Sta", "Def", "Com", "Dat"), "Opt")},
	{"Lasagne", Frontend, withUR(caps("Sta", "Def", "Com"), "Opt")},
	{"TFLearn", Frontend, caps("Sta", "Def", "Com", "Dat", "Opt")},
	{"Deep500 [this work]", Framework, caps(TableIColumns...)},
}

func caps(names ...string) map[string]Support {
	m := make(map[string]Support)
	for _, n := range names {
		m[n] = Full
	}
	return m
}

func withUR(m map[string]Support, col string) map[string]Support {
	m[col] = UpdateRuleOnly
	return m
}

// TableIIColumns are the feature columns of the paper's Table II.
var TableIIColumns = []string{
	"Perf", "Con", "Acc", "Tim", "Cos", "Ene", "Util", "Mem", "Tput", "Brk",
	"Sca", "Com", "TTA", "FTA", "Lat", "Clo", "Ope", "Inf", "Ops",
	"Img", "Obj", "Spe", "Txt", "RL",
}

// BenchmarkCaps is one row of Table II.
type BenchmarkCaps struct {
	Name    string
	Caps    map[string]Support
	Remarks string
}

// TableII reproduces the paper's benchmark survey (Table II).
var TableII = []BenchmarkCaps{
	{"DeepBench", caps("Perf", "Tim", "Tput", "Inf", "Ops"), "Ops: Conv., GEMM, RNN, Allreduce"},
	{"TBD", caps("Perf", "Tim", "Util", "Mem", "Tput", "Inf", "Img", "Obj", "Spe", "Txt", "RL"), "+GANs"},
	{"Fathom", caps("Perf", "Tim", "Tput", "Brk", "Inf", "Img", "Spe", "Txt", "RL"), "+Auto-encoders"},
	{"DLBS", caps("Perf", "Tim", "Tput", "Inf", "Img"), ""},
	{"DAWNBench", caps("Perf", "Con", "Tim", "Cos", "TTA", "FTA", "Lat", "Clo", "Ope", "Img", "Txt"), ""},
	{"Kaggle", caps("Acc", "FTA", "Ope", "Img", "Obj"), "Varying workloads"},
	{"ImageNet", caps("Acc", "FTA", "Ope", "Img", "Obj"), ""},
	{"MLPerf", caps("Perf", "Con", "Acc", "Tim", "Cos", "TTA", "Clo", "Ope", "Img", "Obj", "Spe", "Txt", "RL"), ""},
	{"Deep500 [this work]", caps(TableIIColumns...), "white-box meta-framework"},
}

// NodesSurveyPoint is one box of the paper's Fig. 2 (compute nodes used in
// distributed DL publications over time, from Ben-Nun & Hoefler's survey).
type NodesSurveyPoint struct {
	Period                  string
	Min, P25, Med, P75, Max float64
}

// Fig2Survey is the nodes-over-time distribution behind Fig. 2.
var Fig2Survey = []NodesSurveyPoint{
	{"pre-2013", 1, 1, 4, 16, 256},
	{"2013", 1, 4, 16, 64, 1000},
	{"2014", 1, 8, 32, 96, 1024},
	{"2015", 1, 8, 32, 128, 2048},
	{"2016", 1, 16, 64, 256, 4096},
	{"2017-present", 1, 32, 128, 512, 18000},
}

// RenderTableI renders the framework capability matrix.
func RenderTableI() *Table {
	t := &Table{Title: "Table I: DL systems and features (reproduced survey)",
		Headers: append([]string{"System", "Kind"}, TableIColumns...)}
	for _, s := range TableI {
		row := []string{s.Name, string(s.Kind)}
		for _, c := range TableIColumns {
			row = append(row, s.Caps[c].String())
		}
		t.AddRow(row...)
	}
	t.AddNote("Sta=standard ops, Cus=customizable, Def=deferred, Eag=eager, Com=compilation, Tra=transformable, Dat=dataset integration, Opt=optimizers (UR=update-rule only), PS=parameter server, Dec=decentralized, Asy=async SGD")
	return t
}

// RenderTableII renders the benchmark capability matrix.
func RenderTableII() *Table {
	t := &Table{Title: "Table II: DL benchmarks and functionalities (reproduced survey)",
		Headers: append(append([]string{"Benchmark"}, TableIIColumns...), "Remarks")}
	for _, b := range TableII {
		row := []string{b.Name}
		for _, c := range TableIIColumns {
			row = append(row, b.Caps[c].String())
		}
		t.AddRow(append(row, b.Remarks)...)
	}
	return t
}

// RenderFig2 renders the nodes-over-time survey.
func RenderFig2() *Table {
	t := &Table{Title: "Fig. 2: compute nodes used in distributed DL over time (survey data)",
		Headers: []string{"Period", "Min", "P25", "Median", "P75", "Max"}}
	for _, p := range Fig2Survey {
		t.AddRow(p.Period,
			fnum(p.Min), fnum(p.P25), fnum(p.Med), fnum(p.P75), fnum(p.Max))
	}
	return t
}

func fnum(f float64) string {
	if f == float64(int64(f)) {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatInt(int64(f+0.5), 10)
}

// DeepBenchConvShapes lists convolution problem sizes in the spirit of the
// DeepBench suite the paper samples its Level 0 tests from (94 shapes in
// the original; a representative subset here, scaled to CPU feasibility).
type ConvProblem struct {
	N, C, H, W, M, K, Stride, Pad int
}

// DeepBenchConv returns the conv problem set. quick selects a small subset.
func DeepBenchConv(quick bool) []ConvProblem {
	all := []ConvProblem{
		{16, 3, 224, 224, 64, 3, 1, 1}, // the paper's spotlight shape (Fig. 6a right)
		{8, 64, 56, 56, 64, 3, 1, 1},
		{8, 128, 28, 28, 128, 3, 1, 1},
		{8, 256, 14, 14, 256, 3, 1, 1},
		{8, 512, 7, 7, 512, 3, 1, 1},
		{16, 3, 112, 112, 64, 7, 2, 3},
		{4, 96, 27, 27, 256, 5, 1, 2},
		{16, 64, 28, 28, 128, 1, 1, 0},
		{8, 32, 56, 56, 64, 3, 2, 1},
		{2, 256, 28, 28, 512, 3, 1, 1},
	}
	if quick {
		return []ConvProblem{
			{2, 3, 32, 32, 8, 3, 1, 1},
			{2, 8, 16, 16, 16, 3, 1, 1},
			{1, 16, 14, 14, 16, 3, 2, 1},
		}
	}
	return all
}

// GemmProblem is one GEMM problem size.
type GemmProblem struct{ M, K, N int }

// DeepBenchGemm returns the GEMM problem set (spotlight M=K=2560, N=64
// first, as in Fig. 6b right).
func DeepBenchGemm(quick bool) []GemmProblem {
	all := []GemmProblem{
		{2560, 2560, 64}, // spotlight
		{1760, 1760, 128},
		{2048, 2048, 32},
		{1024, 1024, 256},
		{512, 512, 512},
		{4096, 512, 64},
		{256, 2048, 256},
		{128, 4096, 128},
	}
	if quick {
		return []GemmProblem{{128, 128, 32}, {64, 256, 64}, {256, 64, 16}}
	}
	return all
}
