"""The zoo models a fleet can serve.

Fleet consumers — ``condor serve``, the survival drill, the ``serve``
bench row — get their AFI from the one Condor pipeline, the paper's
steps 1-8: ``CondorFlow(workdir).run(FlowInputs(model=
servable_model(name)))``.  The run's ``agfi_id`` and ``weights`` feed
:class:`~repro.fleet.manager.FleetManager`, and instances launch from
the flow's AWS session (``flow.aws.run_f1_instance``).  This module
names the models that fit one F1 slot and gives each its AWS-F1
deployment intent.
"""

from __future__ import annotations

from repro.errors import FleetError
from repro.frontend.condor_format import DeploymentOption
from repro.frontend.zoo import cifar10_model, lenet_model, tc1_model

__all__ = ["SERVABLE_MODELS", "servable_model"]

#: Zoo models small enough to deploy on one F1 slot (VGG-16 is not).
SERVABLE_MODELS = {
    "tc1": tc1_model,
    "lenet": lenet_model,
    "cifar10": cifar10_model,
}


def servable_model(name: str):
    """The named zoo model with the AWS-F1 deployment intent."""
    try:
        builder = SERVABLE_MODELS[name]
    except KeyError:
        raise FleetError(
            f"model {name!r} is not servable on the fleet; known:"
            f" {sorted(SERVABLE_MODELS)}") from None
    return builder(DeploymentOption.AWS_F1)
