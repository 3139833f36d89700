"""``python -m relcalc``: the command-line front end, as the ``relcalc`` script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
