"""Fixtures shared by the fleet and serving tests: tc1 built into an
AFI by the Condor flow, once per test module."""

import pytest

from repro.fleet import servable_model
from repro.flow.condor import CondorFlow, FlowInputs


@pytest.fixture(scope="module")
def image(tmp_path_factory):
    """``(aws, result)`` of one tc1 AWS-F1 flow run; fleets launch
    instances from ``aws`` against ``result.agfi_id``."""
    flow = CondorFlow(tmp_path_factory.mktemp("tc1-afi"))
    return flow.aws, flow.run(FlowInputs(model=servable_model("tc1")))


@pytest.fixture(scope="module")
def weights(image):
    return image[1].weights
