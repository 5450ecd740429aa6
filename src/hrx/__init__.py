"""Higher-order expansions of bivariate Gaussian maxima toward their
max-stable limits: exact finite-n distributions, closed-form expansion
coefficients, correlation-sequence constructors, and the verification
oracles and CLI gluing them together.

Every public name of these modules re-exports from here; each module's
`__all__` is the one list of its public names."""

from . import cli, gauss, hr_core, norming, oracle, triangular
from .gauss import *  # noqa: F401,F403
from .norming import *  # noqa: F401,F403
from .hr_core import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .triangular import *  # noqa: F401,F403
from .cli import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *gauss.__all__,
    *norming.__all__,
    *hr_core.__all__,
    *oracle.__all__,
    *triangular.__all__,
    *cli.__all__,
    "__version__",
]
