"""The benchmark's workloads, by name."""

from . import campaign_grid, cli_run, table1_vector

WORKLOADS = {
    module.NAME: module for module in (cli_run, table1_vector, campaign_grid)
}
