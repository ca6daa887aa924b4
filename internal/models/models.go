// Package models provides D5NX graph builders for the DNN architectures the
// Deep500 paper ships with (§IV-B): LeNet, AlexNet, ResNet with varying
// depths, Wide ResNet, and simple MLPs. Every builder optionally attaches a
// fused softmax-cross-entropy training head ("loss", "probs") plus an
// accuracy metric node ("acc"), reading inputs "x" and "labels".
//
// Builders accept a width scale so CPU-feasible convergence experiments can
// shrink channel counts while preserving topology; the scale used by each
// experiment is recorded in EXPERIMENTS.md.
package models

import (
	"fmt"
	"strings"

	"deep500/internal/graph"
	"deep500/internal/tensor"
)

// Config holds the common knobs of all builders.
type Config struct {
	// Classes is the number of output classes.
	Classes int
	// Channels/Height/Width describe the input images.
	Channels, Height, Width int
	// WidthScale multiplies channel counts (1.0 = paper topology).
	WidthScale float64
	// Seed drives parameter initialization.
	Seed uint64
	// WithHead attaches loss/accuracy nodes for training.
	WithHead bool
	// BatchNorm enables batch normalization where the architecture uses it.
	BatchNorm bool
}

func (c Config) scale(ch int) int {
	if c.WidthScale <= 0 {
		return ch
	}
	s := int(float64(ch) * c.WidthScale)
	if s < 1 {
		s = 1
	}
	return s
}

// builder accumulates nodes with automatic tensor naming.
type builder struct {
	m    *graph.Model
	rng  *tensor.RNG
	cfg  Config
	next int
	cur  string // current activation tensor name
	// current activation spatial state
	c, h, w int
}

func newBuilder(name string, cfg Config) *builder {
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	b := &builder{
		m:   graph.NewModel(name),
		rng: tensor.NewRNG(cfg.Seed),
		cfg: cfg,
		cur: "x",
		c:   cfg.Channels, h: cfg.Height, w: cfg.Width,
	}
	b.m.AddInput("x", -1, cfg.Channels, cfg.Height, cfg.Width)
	return b
}

func (b *builder) tname(prefix string) string {
	b.next++
	return fmt.Sprintf("%s_%d", prefix, b.next)
}

// conv adds Conv(+bias) with the given geometry and updates spatial state.
func (b *builder) conv(out, k, stride, pad int, withBias bool) {
	name := b.tname("conv")
	wName, bName := name+"_w", name+"_b"
	fanIn := b.c * k * k
	b.m.AddInitializer(wName, tensor.HeInit(b.rng, fanIn, out, b.c, k, k))
	inputs := []string{b.cur, wName}
	if withBias {
		b.m.AddInitializer(bName, tensor.New(out))
		inputs = append(inputs, bName)
	}
	outT := name + "_y"
	b.m.AddNode(graph.NewNode("Conv", name, inputs, []string{outT},
		graph.IntsAttr("strides", int64(stride), int64(stride)),
		graph.IntsAttr("pads", int64(pad), int64(pad)),
		graph.IntsAttr("kernel_shape", int64(k), int64(k))))
	b.cur = outT
	b.c = out
	b.h = (b.h+2*pad-k)/stride + 1
	b.w = (b.w+2*pad-k)/stride + 1
}

// bn adds BatchNormalization over the current activation.
func (b *builder) bn() {
	name := b.tname("bn")
	g, bt := name+"_g", name+"_b"
	mu, va := name+"_mean", name+"_var"
	b.m.AddInitializer(g, tensor.Full(1, b.c))
	b.m.AddInitializer(bt, tensor.New(b.c))
	b.m.AddInitializer(mu, tensor.New(b.c))
	b.m.AddInitializer(va, tensor.Full(1, b.c))
	outT := name + "_y"
	b.m.AddNode(graph.NewNode("BatchNormalization", name,
		[]string{b.cur, g, bt, mu, va}, []string{outT},
		graph.FloatAttr("epsilon", 1e-5), graph.FloatAttr("momentum", 0.1)))
	b.cur = outT
}

func (b *builder) relu() {
	name := b.tname("relu")
	outT := name + "_y"
	b.m.AddNode(graph.NewNode("Relu", name, []string{b.cur}, []string{outT}))
	b.cur = outT
}

func (b *builder) maxPool(k, stride int) {
	name := b.tname("pool")
	outT := name + "_y"
	b.m.AddNode(graph.NewNode("MaxPool", name, []string{b.cur}, []string{outT},
		graph.IntsAttr("kernel_shape", int64(k), int64(k)),
		graph.IntsAttr("strides", int64(stride), int64(stride))))
	b.cur = outT
	b.h = (b.h-k)/stride + 1
	b.w = (b.w-k)/stride + 1
}

func (b *builder) globalAvgPool() {
	name := b.tname("gap")
	outT := name + "_y"
	b.m.AddNode(graph.NewNode("GlobalAveragePool", name, []string{b.cur}, []string{outT}))
	b.cur = outT
	b.h, b.w = 1, 1
}

func (b *builder) flatten() {
	name := b.tname("flat")
	outT := name + "_y"
	b.m.AddNode(graph.NewNode("Flatten", name, []string{b.cur}, []string{outT},
		graph.IntAttr("axis", 1)))
	b.cur = outT
}

// dense adds a fully connected layer on a flattened activation of inFeat
// features.
func (b *builder) dense(inFeat, outFeat int) {
	name := b.tname("fc")
	wName, bName := name+"_w", name+"_b"
	b.m.AddInitializer(wName, tensor.XavierInit(b.rng, inFeat, outFeat, inFeat, outFeat))
	b.m.AddInitializer(bName, tensor.New(outFeat))
	outT := name + "_y"
	b.m.AddNode(graph.NewNode("Gemm", name, []string{b.cur, wName, bName}, []string{outT}))
	b.cur = outT
}

func (b *builder) dropout(ratio float64) {
	name := b.tname("drop")
	outT := name + "_y"
	b.m.AddNode(graph.NewNode("Dropout", name, []string{b.cur}, []string{outT},
		graph.FloatAttr("ratio", ratio), graph.IntAttr("seed", int64(b.rng.Uint64()%1e9))))
	b.cur = outT
}

// head attaches the training head and declares outputs. logits must be the
// current tensor.
func (b *builder) head() *graph.Model {
	b.m.AddOutput(b.cur) // logits
	if b.cfg.WithHead {
		b.m.AddInput("labels", -1)
		b.m.AddNode(graph.NewNode("SoftmaxCrossEntropy", "loss_node",
			[]string{b.cur, "labels"}, []string{"loss", "probs"}))
		b.m.AddNode(graph.NewNode("Accuracy", "acc_node",
			[]string{b.cur, "labels"}, []string{"acc"}))
		b.m.AddOutput("loss")
		b.m.AddOutput("acc")
	}
	return b.m
}

// MLP builds a multilayer perceptron over flattened input with the given
// hidden sizes.
func MLP(cfg Config, hidden ...int) *graph.Model {
	b := newBuilder("mlp", cfg)
	b.flatten()
	in := cfg.Channels * cfg.Height * cfg.Width
	for _, hdim := range hidden {
		b.dense(in, hdim)
		b.relu()
		in = hdim
	}
	b.dense(in, cfg.Classes)
	return b.head()
}

// LeNet builds LeNet-5 (LeCun et al. 1998): the paper's smallest reference
// architecture. Expects ≥20×20 inputs (classically 28×28 MNIST).
func LeNet(cfg Config) *graph.Model {
	b := newBuilder("lenet", cfg)
	b.conv(cfg.scale(6), 5, 1, 2, true)
	b.relu()
	b.maxPool(2, 2)
	b.conv(cfg.scale(16), 5, 1, 0, true)
	b.relu()
	b.maxPool(2, 2)
	b.flatten()
	feat := b.c * b.h * b.w
	b.dense(feat, cfg.scale(120))
	b.relu()
	b.dense(cfg.scale(120), cfg.scale(84))
	b.relu()
	b.dense(cfg.scale(84), cfg.Classes)
	return b.head()
}

// AlexNet builds AlexNet (Krizhevsky et al. 2012) for 224×224×3 inputs —
// the workload of the paper's micro-batching experiment (Fig. 7).
func AlexNet(cfg Config) *graph.Model {
	b := newBuilder("alexnet", cfg)
	b.conv(cfg.scale(96), 11, 4, 2, true)
	b.relu()
	b.maxPool(3, 2)
	b.conv(cfg.scale(256), 5, 1, 2, true)
	b.relu()
	b.maxPool(3, 2)
	b.conv(cfg.scale(384), 3, 1, 1, true)
	b.relu()
	b.conv(cfg.scale(384), 3, 1, 1, true)
	b.relu()
	b.conv(cfg.scale(256), 3, 1, 1, true)
	b.relu()
	b.maxPool(3, 2)
	b.flatten()
	feat := b.c * b.h * b.w
	b.dense(feat, cfg.scale(4096))
	b.relu()
	b.dropout(0.5)
	b.dense(cfg.scale(4096), cfg.scale(4096))
	b.relu()
	b.dropout(0.5)
	b.dense(cfg.scale(4096), cfg.Classes)
	return b.head()
}

// residualBasic adds one basic ResNet block (3×3, 3×3) with a projection
// shortcut when shape changes.
func (b *builder) residualBasic(out, stride int) {
	inName, inC := b.cur, b.c
	inH, inW := b.h, b.w
	b.conv(out, 3, stride, 1, false)
	if b.cfg.BatchNorm {
		b.bn()
	}
	b.relu()
	b.conv(out, 3, 1, 1, false)
	if b.cfg.BatchNorm {
		b.bn()
	}
	mainOut := b.cur
	short := inName
	if stride != 1 || inC != out {
		// projection shortcut: 1×1 conv
		saveCur, saveC, saveH, saveW := b.cur, b.c, b.h, b.w
		b.cur, b.c, b.h, b.w = inName, inC, inH, inW
		b.conv(out, 1, stride, 0, false)
		if b.cfg.BatchNorm {
			b.bn()
		}
		short = b.cur
		b.cur, b.c, b.h, b.w = saveCur, saveC, saveH, saveW
	}
	name := b.tname("res")
	outT := name + "_y"
	b.m.AddNode(graph.NewNode("Add", name, []string{mainOut, short}, []string{outT}))
	b.cur = outT
	b.relu()
}

// residualBottleneck adds one bottleneck block (1×1, 3×3, 1×1 with 4×
// expansion), the ResNet-50 building block.
func (b *builder) residualBottleneck(mid, stride int) {
	out := mid * 4
	inName, inC := b.cur, b.c
	inH, inW := b.h, b.w
	b.conv(mid, 1, 1, 0, false)
	if b.cfg.BatchNorm {
		b.bn()
	}
	b.relu()
	b.conv(mid, 3, stride, 1, false)
	if b.cfg.BatchNorm {
		b.bn()
	}
	b.relu()
	b.conv(out, 1, 1, 0, false)
	if b.cfg.BatchNorm {
		b.bn()
	}
	mainOut := b.cur
	short := inName
	if stride != 1 || inC != out {
		saveCur, saveC, saveH, saveW := b.cur, b.c, b.h, b.w
		b.cur, b.c, b.h, b.w = inName, inC, inH, inW
		b.conv(out, 1, stride, 0, false)
		if b.cfg.BatchNorm {
			b.bn()
		}
		short = b.cur
		b.cur, b.c, b.h, b.w = saveCur, saveC, saveH, saveW
	}
	name := b.tname("res")
	outT := name + "_y"
	b.m.AddNode(graph.NewNode("Add", name, []string{mainOut, short}, []string{outT}))
	b.cur = outT
	b.relu()
}

// ResNet builds a residual network of the given depth. Depths 18 and 34 use
// basic blocks; 50, 101 and 152 use bottlenecks — the paper's convergence
// and scaling workloads use ResNet-18 and ResNet-50 (§V-A). Other depths of
// the form 6n+2 (20, 32, 56, ...) build the CIFAR-style 3-stage network.
func ResNet(depth int, cfg Config) *graph.Model {
	b := newBuilder(fmt.Sprintf("resnet%d", depth), cfg)
	type stage struct{ blocks, channels, stride int }
	var stages []stage
	bottleneck := false
	imagenetStem := cfg.Height >= 64

	switch depth {
	case 18:
		stages = []stage{{2, 64, 1}, {2, 128, 2}, {2, 256, 2}, {2, 512, 2}}
	case 34:
		stages = []stage{{3, 64, 1}, {4, 128, 2}, {6, 256, 2}, {3, 512, 2}}
	case 50:
		bottleneck = true
		stages = []stage{{3, 64, 1}, {4, 128, 2}, {6, 256, 2}, {3, 512, 2}}
	case 101:
		bottleneck = true
		stages = []stage{{3, 64, 1}, {4, 128, 2}, {23, 256, 2}, {3, 512, 2}}
	default:
		// CIFAR-style 6n+2: three stages of n basic blocks
		n := (depth - 2) / 6
		if n < 1 {
			n = 1
		}
		stages = []stage{{n, 16, 1}, {n, 32, 2}, {n, 64, 2}}
	}

	if imagenetStem {
		b.conv(cfg.scale(64), 7, 2, 3, false)
	} else {
		b.conv(cfg.scale(stages[0].channels), 3, 1, 1, false)
	}
	if cfg.BatchNorm {
		b.bn()
	}
	b.relu()
	if imagenetStem {
		b.maxPool(3, 2)
	}
	for _, st := range stages {
		for i := 0; i < st.blocks; i++ {
			stride := 1
			if i == 0 {
				stride = st.stride
			}
			if bottleneck {
				b.residualBottleneck(cfg.scale(st.channels), stride)
			} else {
				b.residualBasic(cfg.scale(st.channels), stride)
			}
		}
	}
	b.globalAvgPool()
	b.flatten()
	b.dense(b.c, cfg.Classes)
	return b.head()
}

// WideResNet builds WRN-depth-k (Zagoruyko & Komodakis 2016): a CIFAR-style
// ResNet whose channel counts are multiplied by widen.
func WideResNet(depth, widen int, cfg Config) *graph.Model {
	n := (depth - 4) / 6
	if n < 1 {
		n = 1
	}
	b := newBuilder(fmt.Sprintf("wrn%d-%d", depth, widen), cfg)
	b.conv(cfg.scale(16), 3, 1, 1, false)
	if cfg.BatchNorm {
		b.bn()
	}
	b.relu()
	for si, ch := range []int{16 * widen, 32 * widen, 64 * widen} {
		stride := 1
		if si > 0 {
			stride = 2
		}
		for i := 0; i < n; i++ {
			s := 1
			if i == 0 {
				s = stride
			}
			b.residualBasic(cfg.scale(ch), s)
		}
	}
	b.globalAvgPool()
	b.flatten()
	b.dense(b.c, cfg.Classes)
	return b.head()
}

// ByName builds the zoo architecture the command-line tools name: "mlp"
// (hidden layers 256 and 128), "lenet", "resnet8", "resnet18" or "wrn16"
// (widen factor 2), matched case-insensitively, at cfg's geometry.
func ByName(name string, cfg Config) (*graph.Model, error) {
	switch strings.ToLower(name) {
	case "mlp":
		return MLP(cfg, 256, 128), nil
	case "lenet":
		return LeNet(cfg), nil
	case "resnet8":
		return ResNet(8, cfg), nil
	case "resnet18":
		return ResNet(18, cfg), nil
	case "wrn16":
		return WideResNet(16, 2, cfg), nil
	}
	return nil, fmt.Errorf("unknown model %q (mlp, lenet, resnet8, resnet18, wrn16)", name)
}
