package exp

// The paper's motivating workload — NOW message passing — as an
// experiment: one cell per initiation method, each a fresh two-node
// cluster world, reporting per-message latency and the initiation
// share that makes OS-initiated DMA stop making sense as links get
// faster (§1, §2.2).

import (
	"fmt"
	"reflect"
	"strings"

	userdma "uldma/internal/core"
	"uldma/internal/dma"
	"uldma/internal/net"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/sim"
	"uldma/internal/stats"
	"uldma/internal/vm"
)

func init() {
	Register(&Experiment{
		Name:  "clustersim",
		Doc:   "NOW message passing: 2 workstations, per-message latency per initiation method",
		Cells: clusterCells,
		Render: map[Format]RenderFunc{
			Text: clusterText,
		},
	})
}

// scaleProtocol is one entry of the NOW comparison line-up: a method
// and its short name — the -protocol flag spelling and the stable
// identifier scalemachine points, JSON rows and bench labels carry
// (display names have spaces and punctuation).
type scaleProtocol struct {
	name   string
	method userdma.Method
}

// scaleProtocols is the NOW comparison line-up, in run order.
var scaleProtocols = []scaleProtocol{
	{"kernel", userdma.KernelLevel{}},
	{"extshadow", userdma.ExtShadow{}},
	{"keybased", userdma.KeyBased{}},
	{"repeated", userdma.RepeatedPassing{Len: 5, Barriers: true}},
}

// ClusterMethods is the NOW comparison's method axis.
func ClusterMethods() []userdma.Method {
	ms := make([]userdma.Method, len(scaleProtocols))
	for i, sp := range scaleProtocols {
		ms[i] = sp.method
	}
	return ms
}

// protocolName maps a method to its line-up short name by type (any
// RepeatedPassing variant is "repeated"), falling back to the display
// name for methods outside the line-up.
func protocolName(m userdma.Method) string {
	for _, sp := range scaleProtocols {
		if reflect.TypeOf(sp.method) == reflect.TypeOf(m) {
			return sp.name
		}
	}
	return m.Name()
}

// clusterLink resolves the link preset the params select.
func clusterLink(p Params) (net.LinkConfig, string) {
	if p.ATM {
		return net.ATM155(), "ATM-155"
	}
	return net.Gigabit(), "Gigabit"
}

func clusterCells(p Params) ([]Cell, error) {
	link, linkName := clusterLink(p)
	methods := ClusterMethods()
	cells := make([]Cell, len(methods))
	for i, method := range methods {
		method := method
		cells[i] = Cell{Method: method.Name(), Config: linkName, Run: func() (Obs, bool, error) {
			lat, initCost, sample, err := oneWayLatency(method, link, p.Msgs, p.MsgSize)
			if err != nil {
				return Obs{}, false, fmt.Errorf("%s: %w", method.Name(), err)
			}
			return Obs{Rows: []Row{{Name: method.Name(), Mean: lat, Init: initCost, Hist: sample}}}, false, nil
		}}
	}
	return cells, nil
}

func clusterText(r *Result, p Params) string {
	_, linkName := clusterLink(p)
	var b strings.Builder
	fmt.Fprintf(&b, "NOW message passing — 2 workstations, %s link, %d×%dB messages\n\n",
		linkName, p.Msgs, p.MsgSize)
	tb := stats.NewTable("initiation method", "msg latency", "initiation", "init share")
	rows := r.Rows()
	for _, row := range rows {
		tb.AddRow(row.Name, row.Mean, row.Init,
			fmt.Sprintf("%.0f%%", 100*float64(row.Init)/float64(row.Mean)))
	}
	b.WriteString(tb.String())
	b.WriteByte('\n')
	if p.Hist {
		for _, row := range rows {
			fmt.Fprintf(&b, "latency distribution — %s:\n%s\n", row.Name, row.Hist.Histogram(8))
		}
	}
	b.WriteString("init share = fraction of one-way latency spent starting the DMA.\n")
	b.WriteString("The faster the link, the more the kernel trap dominates — the paper's thesis.\n")
	return b.String()
}

// oneWayLatency measures mean send-to-receive latency: sender DMAs the
// payload into the receiver's mailbox and remote-writes a sequence flag;
// the receiver polls the flag.
func oneWayLatency(method userdma.Method, link net.LinkConfig, msgs int, size uint64) (lat, initCost sim.Time, latencies *stats.Sample, err error) {
	cfg := userdma.ConfigFor(method)
	cluster, err := net.NewCluster(2, cfg, link)
	if err != nil {
		return 0, 0, nil, err
	}
	n0, n1 := cluster.Nodes[0], cluster.Nodes[1]

	const (
		srcVA    = vm.VAddr(0x10000) // sender payload page
		remVA    = vm.VAddr(0x20000) // sender's window into the receiver
		boxVA    = vm.VAddr(0x30000) // receiver's local mailbox
		mailbox  = phys.Addr(0x80000)
		flagSlot = 8160 // flag word near the end of the mailbox page
	)

	var sendTimes []sim.Time
	var initSample, latSample stats.Sample

	var h *userdma.Handle
	sender := n0.NewProcess("sender", func(c *proc.Context) error {
		for i := 0; i < msgs; i++ {
			start := n0.Clock.Now()
			st, err := h.DMA(c, srcVA, remVA, size)
			if err != nil {
				return err
			}
			if st == dma.StatusFailure {
				return fmt.Errorf("message %d refused", i)
			}
			initSample.Add(n0.Clock.Now() - start)
			sendTimes = append(sendTimes, start)
			// Doorbell: remote-write the sequence number after the data.
			if err := c.Store(remVA+flagSlot, phys.Size64, uint64(i+1)); err != nil {
				return err
			}
			if err := c.MB(); err != nil {
				return err
			}
			// Pace the sender so messages do not pile up in flight.
			for n0.Clock.Now() < start+200*sim.Microsecond {
				c.Spin(2000)
			}
		}
		return nil
	})

	receiver := n1.NewProcess("receiver", func(c *proc.Context) error {
		for i := 0; i < msgs; i++ {
			for {
				v, err := c.Load(boxVA+flagSlot, phys.Size64)
				if err != nil {
					return err
				}
				if v >= uint64(i+1) {
					break
				}
				c.Spin(500)
			}
			latSample.Add(n1.Clock.Now() - sendTimes[i])
		}
		return nil
	})

	// Sender setup. Attach first: context-carrying methods burn their
	// context id into the shadow mappings created below.
	h, err = method.Attach(n0, sender)
	if err != nil {
		return 0, 0, nil, err
	}
	frames, err := n0.SetupPages(sender, srcVA, 1, vm.Read|vm.Write)
	if err != nil {
		return 0, 0, nil, err
	}
	n0.Mem.Fill(frames[0], int(size), 0xab)
	if err := n0.Kernel.MapRemote(sender, remVA, 1, mailbox); err != nil {
		return 0, 0, nil, err
	}
	if err := n0.Kernel.MapShadow(sender, remVA); err != nil {
		return 0, 0, nil, err
	}
	if s1, ok := method.(userdma.SHRIMP1); ok {
		if err := s1.MapOutPage(n0, sender, srcVA, n0.Engine.Config().RemoteAddr(1, mailbox)); err != nil {
			return 0, 0, nil, err
		}
	}
	// Receiver setup: read-only view of its mailbox page.
	if err := n1.Kernel.MapFrame(receiver.AddressSpace(), boxVA, mailbox, vm.Read); err != nil {
		return 0, 0, nil, err
	}

	if err := cluster.RunRoundRobin(8, 1<<30); err != nil {
		return 0, 0, nil, err
	}
	if sender.Err() != nil {
		return 0, 0, nil, fmt.Errorf("sender: %w", sender.Err())
	}
	if receiver.Err() != nil {
		return 0, 0, nil, fmt.Errorf("receiver: %w", receiver.Err())
	}
	return latSample.Mean(), initSample.Mean(), &latSample, nil
}
