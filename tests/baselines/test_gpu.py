"""Unit tests for the GPU roofline baseline."""


from repro.baselines.gpu import GPUModel
from repro.baselines.specs import A100, EDGE_GPU, SERVER_GPU
from repro.workloads.specs import get_spec


class TestKernelModel:
    def test_launch_overhead_floor(self):
        gpu = GPUModel(SERVER_GPU)
        seconds, _ = gpu._kernel_seconds(1, 1, 1)
        assert seconds == SERVER_GPU.kernel_launch_s

    def test_large_kernels_compute_bound(self):
        gpu = GPUModel(SERVER_GPU)
        seconds, util = gpu._kernel_seconds(4096, 4096, 4096)
        assert util == SERVER_GPU.max_utilization
        assert seconds > SERVER_GPU.kernel_launch_s

    def test_small_kernels_low_utilization(self):
        gpu = GPUModel(SERVER_GPU)
        _, util = gpu._kernel_seconds(4, 256, 256)
        assert util < 0.1 * SERVER_GPU.max_utilization


class TestSimulation:
    def test_report_fields(self):
        report = GPUModel(SERVER_GPU).simulate(get_spec("dit"))
        assert report.latency_s > 0
        assert report.energy_j > 0
        assert report.effective_tops > 0
        assert report.iterations == 100

    def test_dense_ops_match_mapping(self):
        from repro.program.lower import lower_program

        spec = get_spec("mdm")
        report = GPUModel(SERVER_GPU).simulate(spec)
        macs = lower_program(spec, scale="paper").macs_by_kind()
        expected = 2 * sum(macs.values()) * 50
        assert report.dense_equivalent_ops == expected

    def test_batch_amortizes_launch_overhead(self):
        spec = get_spec("mld")
        gpu = GPUModel(SERVER_GPU)
        b1 = gpu.simulate(spec, batch=1)
        b8 = gpu.simulate(spec, batch=8)
        # Per-sample latency improves with batch on launch-bound models.
        assert b8.latency_s / 8 < b1.latency_s

    def test_edge_slower_than_server(self):
        spec = get_spec("mdm")
        edge = GPUModel(EDGE_GPU).simulate(spec)
        server = GPUModel(SERVER_GPU).simulate(spec)
        assert edge.latency_s > server.latency_s

    def test_power_between_idle_and_tdp(self):
        report = GPUModel(SERVER_GPU).simulate(get_spec("dit"))
        assert (
            SERVER_GPU.tdp_w * SERVER_GPU.idle_power_fraction
            <= report.energy_j / report.latency_s
            <= SERVER_GPU.tdp_w
        )

    def test_small_models_are_launch_bound(self):
        """MLD's tiny kernels leave the server GPU mostly idle — the
        source of the paper's largest speedups."""
        spec = get_spec("mld")
        gpu = GPUModel(SERVER_GPU)
        report = gpu.simulate(spec)
        pure_compute = report.dense_equivalent_ops / (
            SERVER_GPU.peak_ops_per_s * SERVER_GPU.max_utilization
        )
        assert report.latency_s > 20 * pure_compute

    def test_a100_spec_sane(self):
        assert A100.peak_ops_per_s > SERVER_GPU.peak_ops_per_s
