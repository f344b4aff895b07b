let set_num_domains (_ : int) = ()
