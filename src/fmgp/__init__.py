"""Gaussian process regression and classification with learned neural
feature maps, low-rank exact inference, and spectral analysis tools.

Import the submodules by name (``from fmgp import regression``).  This
package module imports none of them, so that an entry point can set the
threading environment variables before numpy is first imported.
"""

__version__ = "0.1.0"
